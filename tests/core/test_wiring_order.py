"""Order independence of home assembly, as a property.

A home is wired by one replayed function per resource (DESIGN.md §5),
so any interleaving of ``add_device`` / ``deploy_service`` /
``deploy_pipeline`` with the ten ``enable_*`` switches must attach the same
observers to the same resources as enabling every feature first. The only
constraints on the draw are the documented ones: resources are built in
dependency order, and failure detection needs a device to run on (SLO
admission prices deploys that come after ``enable_slo`` — by design, and
not part of the wiring).

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites
(default 200; the CI audit job raises it).
"""

import functools
import os

from hypothesis import given, settings, strategies as st

from repro.audit.determinism import EventTap
from repro.core import VideoPipe
from repro.fleet.workload import home_pipeline_config
from repro.pipeline import PerfConfig
from repro.services import FunctionService, ScalingPolicy
from repro.slo import SLO

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))
RUN_S = 2.0


def service(name, cost_s, **attrs):
    svc = FunctionService(name, lambda payload, ctx: {"ok": True},
                          reference_cost_s=cost_s)
    for key, value in attrs.items():
        setattr(svc, key, value)
    return svc


#: Resource steps, in the dependency order every draw keeps.
RESOURCES = [
    lambda home: home.add_device("phone"),
    lambda home: home.add_device("desktop"),
    lambda home: home.add_device("tv"),
    lambda home: home.deploy_service(
        service("fleet_detector", 0.016, cacheable=True, max_batch=4),
        "desktop", port=7910),
    lambda home: home.deploy_service(
        service("fleet_classifier", 0.006), "desktop", port=7911),
    lambda home: home.deploy_service(
        service("fleet_alerter", 0.0015), "phone", native=True, port=7912),
    lambda home: home.deploy_pipeline(
        home_pipeline_config("order", "phone", duration_s=RUN_S),
        slo=SLO(p99_latency_s=0.5)),
]

FEATURES = {
    "fast_path": lambda home: home.enable_fast_path(PerfConfig(batching=True)),
    "data_plane": lambda home: home.enable_data_plane(),
    "tracing": lambda home: home.enable_tracing(),
    "audit": lambda home: home.enable_audit(),
    "monitoring": lambda home: home.enable_monitoring(),
    "optimizer": lambda home: home.enable_optimizer(),
    "autoscaling": lambda home: home.enable_autoscaling(
        ScalingPolicy(check_interval_s=0.25)),
    "slo": lambda home: home.enable_slo(),
    "liveops": lambda home: home.enable_liveops(),
    "detection": lambda home: home.enable_failure_detection(),
}
PASSIVE = ("tracing", "audit", "liveops")

#: Earliest slot a feature may take: slot *i* runs before resource step *i*.
FIRST_SLOT = {"detection": 1}
SLOTS = len(RESOURCES)


def build(order, seed=5):
    """*order* is a list of ``(feature, slot)``: features run in list order
    within a slot, each slot right before the resource step it names (slot
    ``SLOTS`` is after the last one)."""
    home = VideoPipe(seed=seed)
    for slot in range(SLOTS + 1):
        for feature, at in order:
            if at == slot:
                FEATURES[feature](home)
        if slot < SLOTS:
            RESOURCES[slot](home)
    return home


def features_first(features):
    return [(name, FIRST_SLOT.get(name, 0)) for name in features]


@st.composite
def interleavings(draw, features=tuple(FEATURES)):
    chosen = draw(st.permutations(features))
    return [
        (name, draw(st.integers(FIRST_SLOT.get(name, 0), SLOTS)))
        for name in chosen
    ]


def snapshot(home):
    """Who is attached to what — everything the wiring functions decide."""
    auditor, tracer = home.auditor, home.tracer

    def audited(component):
        return getattr(component.observer, "auditor", None) is auditor

    hosts = [host for name in home.registry.service_names()
             for host in home.registry.hosts_of(name)]
    return {
        "audited_stores": sorted(
            name for name, device in home.devices.items()
            if audited(device.frame_store)),
        "audited_arenas": sorted(
            name for name, device in home.devices.items()
            if device.arena is not None and audited(device.arena)),
        "audited_transport": audited(home.transport),
        "audited_collectors": sorted(
            p.name for p in home.pipelines
            if auditor.watch_metrics(p.metrics) in p.wiring.observers),
        "audited_actions": audited(home.actions),
        "audited_admissions": home.slo.auditor is auditor,
        "dedup_stores": sorted(
            (name, device.frame_store.retain_limit)
            for name, device in home.devices.items()
            if device.frame_store.dedup),
        "arenas": sorted(
            name for name, device in home.devices.items()
            if device.arena is not None),
        "pools": sorted(
            name for name, device in home.devices.items()
            if device.replica_pool is not None),
        "hosts": sorted(
            (host.service_name, host.observer is tracer,
             host.pool is host.device.replica_pool,
             host.result_cache is not None, host.batch_wait_s)
            for host in hosts),
        "pipelines": sorted(
            (p.name, tracer in p.wiring.observers,
             home.liveops.lineage in p.wiring.observers)
            for p in home.pipelines),
        "series": sorted({s.probe for s in home.monitor.sample_once()}),
        "autoscaled": sorted(h.service_name for h in home.autoscaler._hosts),
        "optimized": sorted(home.optimizer._pipelines),
        "slo_enrolled": sorted(
            e.pipeline.name for e in home.slo.enrollments),
        "detector_watched": home.detector.watched(),
        "heartbeats": sorted(home._responders),
    }


@functools.cache
def canonical():
    return snapshot(build(features_first(FEATURES)))


def test_canonical_snapshot_is_fully_wired():
    """The oracle itself: features-first attaches everything everywhere."""
    wired = canonical()
    everything = ["desktop", "phone", "tv"]
    assert wired["audited_stores"] == everything
    assert wired["audited_arenas"] == everything
    assert wired["audited_transport"]
    assert wired["audited_collectors"] == ["order"]
    assert wired["audited_actions"] and wired["audited_admissions"]
    assert wired["hosts"] == [
        ("fleet_alerter", True, True, False, 0.0),
        ("fleet_classifier", True, True, False, 0.0),
        ("fleet_detector", True, True, True, 0.004),
    ]
    assert wired["pipelines"] == [("order", True, True)]
    assert wired["series"] == [
        "audit", "data_plane/arena", "data_plane/arena/by_device/desktop",
        "data_plane/arena/by_device/phone", "data_plane/arena/by_device/tv",
        "data_plane/pool", "data_plane/pool/by_device/desktop",
        "data_plane/pool/by_device/desktop/shares",
        "data_plane/pool/by_device/phone",
        "data_plane/pool/by_device/phone/shares",
        "data_plane/pool/by_device/tv", "device/desktop", "device/phone",
        "device/tv", "failures", "liveops/counts", "liveops/lineage",
        "perf/batching", "perf/cache", "perf/dedup", "pipeline/order",
        "service/fleet_alerter@phone", "service/fleet_classifier@desktop",
        "service/fleet_detector@desktop", "slo", "slo/pipelines/order",
        "slo/pipelines/order/slo", "tracing",
    ]
    assert wired["slo_enrolled"] == ["order"]
    assert wired["detector_watched"] == ["desktop", "tv"]


@settings(max_examples=max(1, FUZZ_N // 5), derandomize=True, deadline=None)
@given(order=interleavings())
def test_any_interleaving_wires_the_same_home_and_runs_clean(order):
    home = build(order)
    assert snapshot(home) == canonical(), order
    home.run(until=RUN_S + 1.0)
    assert home.pipelines[0].metrics.counter("frames_completed") > 0
    assert home.kernel.pending_events > 0  # the detector's heartbeats
    assert home.check_invariants() == [], home.auditor.report()
    assert home.auditor.violations == [], home.auditor.report()


def tapped_run(order):
    home = build(order)
    tap = EventTap()
    home.kernel.add_observer(tap)
    home.run(until=RUN_S + 1.0)
    return tap.records


@functools.cache
def featureless_run():
    return tapped_run([])


@settings(max_examples=max(1, FUZZ_N // 10), derandomize=True, deadline=None)
@given(data=st.data())
def test_passive_features_in_any_order_leave_the_event_stream_alone(data):
    """Tracing, audit and idle live-ops: bit-identical stream. The tracer
    closes a call's span inside the event that resolves the call, or in the
    call itself when it resolved at once, so it schedules no event."""
    subset = data.draw(st.lists(st.sampled_from(PASSIVE), unique=True))
    order = data.draw(interleavings(tuple(subset)))
    records, featureless = tapped_run(order), featureless_run()
    assert records == featureless, order


def test_late_monitoring_probes_existing_pipelines():
    """``enable_monitoring()`` after ``deploy_pipeline()`` (the shape
    ``enable_self_healing`` builds after a deploy) reads the same series as
    before it: the monitor reads the home's snapshot, not per-resource
    registrations."""
    late = build([("monitoring", SLOTS)])
    early = build([("monitoring", 0)])
    series = [(s.probe, s.metric) for s in late.monitor.sample_once()]
    assert ("pipeline/order", "frames_completed") in series
    assert series == [(s.probe, s.metric) for s in early.monitor.sample_once()]
