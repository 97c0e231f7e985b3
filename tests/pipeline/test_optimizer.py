"""The cost model, the search, and the online re-placement loop.

The recurring fixture is a home built to trap the co-located heuristic: a
service replicated on a slow device (``alpha``) and a fast one (``zeta``).
The heuristic tie-breaks alphabetically onto ``alpha``; anything that
actually models cost must land on ``zeta``.
"""

from __future__ import annotations

import pytest

from repro.core import VideoPipe
from repro.devices.spec import DeviceSpec
from repro.errors import ConfigError, PlacementError
from repro.fleet.workload import FleetSinkModule, FleetStageModule  # noqa: F401  (registers modules)
from repro.pipeline import (
    COLOCATED,
    OPTIMIZED,
    CostModel,
    OptimizerConfig,
    observed_module_seconds,
    plan_colocated,
    plan_optimized,
)
from repro.pipeline.config import ModuleConfig, PipelineConfig
from repro.runtime.module import Module
from repro.services import PoseDetectorService
from repro.services.base import FunctionService

HEAVY_COST_S = 0.05


def _trap_home(seed: int = 5) -> VideoPipe:
    home = VideoPipe(seed=seed)
    home.add_device("phone")
    home.add_device(DeviceSpec(name="alpha", kind="laptop", cpu_factor=6.0,
                               cores=2, memory_mb=2048,
                               supports_containers=True))
    home.add_device(DeviceSpec(name="zeta", kind="desktop", cpu_factor=0.8,
                               cores=8, memory_mb=16384,
                               supports_containers=True))
    for device, port in (("alpha", 7920), ("zeta", 7921)):
        home.deploy_service(
            FunctionService("heavy", lambda p, c: {"done": True},
                            reference_cost_s=HEAVY_COST_S),
            device, port=port,
        )
    return home


def _trap_config(fps: float = 8.0, duration_s: float = 3.0) -> PipelineConfig:
    return PipelineConfig(name="trap", modules=[
        ModuleConfig(name="camera", include="./VideoStreamingModule.js",
                     device="phone", next_modules=["stage"],
                     params={"fps": fps, "duration_s": duration_s,
                             "credit_timeout_s": 1.0}),
        ModuleConfig(name="stage", include="./FleetStageModule.js",
                     services=["heavy"], next_modules=["sink"],
                     params={"service": "heavy", "stage": "stage"}),
        ModuleConfig(name="sink", include="./FleetSinkModule.js"),
    ])


# -- the latency terms, on the paper's testbed ----------------------------------

def _testbed_config(work_service=None, src_pin=None) -> PipelineConfig:
    return PipelineConfig(name="sched", modules=[
        ModuleConfig(name="src", include="./src.js", next_modules=["work"],
                     device=src_pin, endpoint="bind#tcp://*:6300"),
        ModuleConfig(name="work", include="./work.js", next_modules=["out"],
                     services=[work_service] if work_service else [],
                     endpoint="bind#tcp://*:6301"),
        ModuleConfig(name="out", include="./out.js",
                     endpoint="bind#tcp://*:6302"),
    ])


@pytest.fixture
def testbed():
    """The paper's phone/desktop/tv home with a 50 ms service on the
    desktop."""
    home = VideoPipe.paper_testbed(seed=0)
    home.deploy_service(
        FunctionService("heavy", lambda p, c: p, reference_cost_s=0.050,
                        default_port=7600),
        "desktop", native=True,
    )
    return home


def _model(home, config) -> CostModel:
    return CostModel(config, home.devices, home.registry, home.topology)


def test_module_cost_scales_with_device_speed(testbed):
    config = _testbed_config("heavy")
    model = _model(testbed, config)
    fast = model.module_cost(config.module("work"), "desktop")
    slow_caller = model.module_cost(config.module("work"), "phone")
    # on the desktop the call is local; from the phone it pays the trip
    assert fast < slow_caller


def test_transfer_cost_zero_on_device(testbed):
    model = _model(testbed, _testbed_config())
    assert model.transfer_cost("phone", "phone") < 0.001
    assert model.transfer_cost("phone", "desktop") > 0.005


def test_evaluate_prefers_colocation(testbed):
    config = _testbed_config("heavy", src_pin="phone")
    model = _model(testbed, config)
    colocated = model.evaluate(
        {"src": "phone", "work": "desktop", "out": "desktop"}
    )
    remote = model.evaluate({"src": "phone", "work": "phone", "out": "phone"})
    assert colocated.total < remote.total


def test_unhosted_service_raises(testbed):
    model = _model(testbed, _testbed_config("ghost"))
    with pytest.raises(PlacementError):
        model.evaluate({"src": "phone", "work": "phone", "out": "phone"})


def test_matches_colocation_on_the_paper_testbed(testbed):
    config = _testbed_config("heavy", src_pin="phone")
    plan = plan_optimized(config, testbed.devices, testbed.registry,
                          testbed.topology, default_device="phone")
    assert plan.device_of("work") == "desktop"


def test_never_worse_than_heuristic(testbed):
    config = _testbed_config("heavy", src_pin="phone")
    model = _model(testbed, config)
    heuristic = plan_colocated(config, testbed.devices, testbed.registry,
                               "phone")
    optimized = plan_optimized(config, testbed.devices, testbed.registry,
                               testbed.topology, default_device="phone")
    assert (model.score(optimized.assignments).total
            <= model.score(heuristic.assignments).total + 1e-9)


# -- the search -----------------------------------------------------------------

def test_search_beats_heuristic_on_replica_speed():
    home = _trap_home()
    config = _trap_config()
    heuristic = home.plan(config, strategy=COLOCATED, default_device="phone")
    assert heuristic.assignments["stage"] == "alpha"  # the alphabetical trap
    optimized = plan_optimized(config, home.devices, home.registry,
                               home.topology, "phone")
    assert optimized.strategy == OPTIMIZED
    assert optimized.assignments["stage"] == "zeta"
    model = CostModel(config, home.devices, home.registry, home.topology)
    assert (model.score(optimized.assignments).total
            < model.score(heuristic.assignments).total)


def test_local_search_finds_the_same_winner():
    """Force the local-search path (budget of 1 candidate) and check it
    reaches the exhaustive answer from its colocated/single-host/random
    starts."""
    home = _trap_home()
    config = _trap_config()
    plan = plan_optimized(
        config, home.devices, home.registry, home.topology,
        "phone", optimizer=OptimizerConfig(max_candidates=1),
    )
    assert plan.assignments["stage"] == "zeta"


def test_local_search_deterministic_under_seed():
    home = _trap_home()
    config = _trap_config()
    plans = [
        plan_optimized(
            config, home.devices, home.registry, home.topology, "phone",
            optimizer=OptimizerConfig(max_candidates=1),
        ).assignments
        for _ in range(2)
    ]
    assert plans[0] == plans[1]


def test_capacity_penalty_rises_with_fps():
    home = _trap_home()
    config = _trap_config()
    assignments = {"camera": "phone", "stage": "alpha", "sink": "alpha"}
    calm = CostModel(config, home.devices, home.registry, home.topology,
                     optimizer=OptimizerConfig(fps=1.0))
    # alpha computes the heavy call at 6 x 0.05 s = 0.3 s/frame on 2 cores:
    # fine at 1 fps, far past saturation at 30 fps
    assert calm.capacity_penalty(assignments) == 0.0
    hot = CostModel(config, home.devices, home.registry, home.topology,
                    optimizer=OptimizerConfig(fps=30.0))
    assert hot.capacity_penalty(assignments) > 0.0
    assert hot.score(assignments).total > calm.score(assignments).total


def test_memory_penalty_on_small_devices():
    home = _trap_home()
    config = _trap_config()
    crowded = {"camera": "phone", "stage": "phone", "sink": "phone"}
    tight = CostModel(
        config, home.devices, home.registry, home.topology,
        optimizer=OptimizerConfig(module_footprint_mb=100_000),
    )
    assert tight.memory_penalty(crowded) > 0.0
    roomy = CostModel(config, home.devices, home.registry, home.topology)
    assert roomy.memory_penalty(crowded) == 0.0


def test_calibration_scales_and_clamps():
    home = _trap_home()
    config = _trap_config()
    base = CostModel(config, home.devices, home.registry, home.topology)
    stage = config.module("stage")
    modeled = base.module_cost(stage, "alpha")
    assert base.calibration("stage") == 1.0

    hot = CostModel(config, home.devices, home.registry, home.topology,
                    observed_module_s={"stage": (modeled * 2.0, "alpha")})
    assert hot.calibration("stage") == pytest.approx(2.0)
    assert hot.module_cost(stage, "alpha") == pytest.approx(modeled * 2.0)
    # the ratio applies on every candidate device, not just the measured one
    assert hot.module_cost(stage, "zeta") == pytest.approx(
        base.module_cost(stage, "zeta") * 2.0)

    wild = CostModel(config, home.devices, home.registry, home.topology,
                     observed_module_s={"stage": (modeled * 100.0, "alpha")})
    assert wild.calibration("stage") == 4.0  # clamped
    unknown_device = CostModel(
        config, home.devices, home.registry, home.topology,
        observed_module_s={"stage": (modeled * 2.0, "nas")})
    assert unknown_device.calibration("stage") == 1.0


def test_graceful_fallback_keeps_colocated_plan():
    """When co-location is already optimal (the paper testbed shape), the
    search returns the actual colocated plan object — provenance intact."""
    home = VideoPipe(seed=6)
    home.add_device("phone")
    home.add_device("desktop")
    home.deploy_service(
        FunctionService("heavy", lambda p, c: {}, reference_cost_s=HEAVY_COST_S),
        "desktop",
    )
    config = _trap_config()
    plan = plan_optimized(config, home.devices, home.registry,
                          home.topology, "phone")
    assert plan.strategy == COLOCATED
    assert plan.assignments["stage"] == "desktop"


def test_an_exact_tie_keeps_the_colocated_plan():
    """The one tie-break rule: the co-located plan stands unless something
    beats it by more than 1e-9. Two identical replicas make the trap home's
    ``alpha``/``zeta`` choice an exact tie (the difference is 0.0, not
    small); the search must return the heuristic's own plan, tagged as
    such, not an equally good one tagged ``optimized``."""
    home = VideoPipe(seed=5)
    home.add_device("phone")
    for name, port in (("alpha", 7920), ("zeta", 7921)):
        home.add_device(DeviceSpec(name=name, kind="desktop", cpu_factor=0.8,
                                   cores=8, memory_mb=16384,
                                   supports_containers=True))
        home.deploy_service(
            FunctionService("heavy", lambda p, c: {"done": True},
                            reference_cost_s=HEAVY_COST_S),
            name, port=port,
        )
    config = _trap_config()
    heuristic = plan_colocated(config, home.devices, home.registry, "phone")
    assert heuristic.assignments == {
        "camera": "phone", "stage": "alpha", "sink": "alpha"}
    model = _model(home, config)
    mirror = {"camera": "phone", "stage": "zeta", "sink": "zeta"}
    assert (model.score(mirror).total
            == model.score(heuristic.assignments).total)
    for budget in (OptimizerConfig(), OptimizerConfig(max_candidates=1)):
        plan = plan_optimized(config, home.devices, home.registry,
                              home.topology, "phone", optimizer=budget)
        assert plan.strategy == COLOCATED
        assert plan.assignments == heuristic.assignments


def test_per_edge_byte_hint_moves_the_pose_module():
    """A5's home (``benchmarks/bench_ablation_scheduler.py``): the pose
    service on slow ``athena`` and fast ``zeus``, camera and sink pinned to
    ``cam``. Pricing a 42 kB frame on *every* edge, a remote pose call beats
    shipping the result edge back, so the search keeps the pose module on
    the camera; told that only the camera's out-edge carries frames, it
    moves the module next to the fast replica."""
    home = VideoPipe(seed=29)
    home.add_device(DeviceSpec(name="athena", kind="laptop", cpu_factor=4.0,
                               cores=4, supports_containers=True))
    home.add_device(DeviceSpec(name="zeus", kind="desktop", cpu_factor=1.0,
                               cores=8, supports_containers=True))
    home.add_device(DeviceSpec(name="cam", kind="phone", cpu_factor=2.5,
                               cores=8))
    for device in ("athena", "zeus"):
        home.deploy_service(PoseDetectorService(), device)
    config = PipelineConfig(name="a5", source="cam_module", modules=[
        ModuleConfig(name="cam_module", include="./VideoStreamingModule.js",
                     device="cam", next_modules=["pose_module"]),
        ModuleConfig(name="pose_module", include="./PoseDetectorModule.js",
                     services=["pose_detector"], next_modules=["sink_module"]),
        ModuleConfig(name="sink_module", include="./FleetSinkModule.js",
                     device="cam"),
    ])

    def pose_device(optimizer=None) -> str:
        return plan_optimized(
            config, home.devices, home.registry, home.topology, "cam",
            optimizer=optimizer,
        ).device_of("pose_module")

    assert plan_colocated(config, home.devices, home.registry,
                          "cam").device_of("pose_module") == "athena"
    assert pose_device() == "cam"
    hint = OptimizerConfig(
        edge_bytes=lambda src, dst: 42_000 if src == "cam" else 600)
    assert pose_device(hint) == "zeus"
    # an int hint prices every edge alike, as the default does
    assert pose_device(OptimizerConfig(edge_bytes=42_000)) == "cam"
    with pytest.raises(ConfigError, match="edge_bytes"):
        OptimizerConfig(edge_bytes=-1)


# -- observed_module_seconds ----------------------------------------------------

def _run_trap(tracing: bool) -> tuple[VideoPipe, "object"]:
    home = _trap_home()
    if tracing:
        home.enable_tracing()
    pipeline = home.deploy_pipeline(_trap_config(duration_s=1.5),
                                    default_device="phone")
    home.run()
    return home, pipeline


def test_observed_module_seconds_from_metrics():
    home, pipeline = _run_trap(tracing=False)
    observed = observed_module_seconds(pipeline)
    # the stage records a metrics stage named after the module
    assert "stage" in observed
    assert observed["stage"] > 0


def test_observed_module_seconds_from_tracer():
    home, pipeline = _run_trap(tracing=True)
    observed = observed_module_seconds(pipeline, home.tracer)
    assert set(observed) and all(v >= 0 for v in observed.values())
    assert "stage" in observed


# -- OnlineOptimizer ------------------------------------------------------------

def test_online_optimizer_migrates_off_the_slow_replica():
    home = _trap_home()
    optimizer = home.enable_optimizer(OptimizerConfig(
        fps=8.0, replan_interval_s=0.5, replan_threshold_frac=0.05,
    ))
    pipeline = home.deploy_pipeline(
        _trap_config(fps=8.0, duration_s=4.0),
        strategy=COLOCATED, default_device="phone",
    )
    assert pipeline.placement.assignments["stage"] == "alpha"
    home.run(until=5.5)
    optimizer.stop()
    home.run()

    assert optimizer.events, "expected at least one replan"
    event = optimizer.events[0]
    assert event.pipeline == "trap"
    assert event.moves.get("stage") == ("alpha", "zeta")
    assert event.predicted_after_s < event.predicted_before_s
    assert pipeline.placement.assignments["stage"] == "zeta"
    assert pipeline.metrics.counter("replans") >= 1
    assert pipeline.metrics.counter("migrations") >= 1
    # the stream survived the move with exact accounting: every admitted
    # frame settled as completed or dropped (frames_dropped also counts
    # the source's pre-admission credit drops — the slow replica saturates
    # at 8 fps — so the counters can over-cover frames_entered)
    metrics = pipeline.metrics
    assert metrics.counter("frames_completed") > 0
    assert metrics.frames_in_flight == 0
    assert (metrics.counter("frames_entered")
            <= metrics.counter("frames_completed")
            + metrics.counter("frames_dropped"))
    sink = pipeline.module_instance("sink")
    assert sink.frame_ids == sorted(set(sink.frame_ids))


def test_online_optimizer_respects_hysteresis():
    """With the threshold above the achievable gain, nothing moves."""
    home = _trap_home()
    optimizer = home.enable_optimizer(OptimizerConfig(
        fps=8.0, replan_interval_s=0.5, replan_threshold_frac=0.99,
    ))
    pipeline = home.deploy_pipeline(
        _trap_config(fps=8.0, duration_s=3.0),
        strategy=COLOCATED, default_device="phone",
    )
    home.run(until=4.5)
    optimizer.stop()
    home.run()
    assert optimizer.events == []
    assert pipeline.placement.assignments["stage"] == "alpha"
    assert pipeline.metrics.counter("migrations") == 0


def test_enable_optimizer_is_idempotent_and_watches_existing():
    home = _trap_home()
    pipeline = home.deploy_pipeline(_trap_config(duration_s=1.0),
                                    default_device="phone")
    first = home.enable_optimizer()
    second = home.enable_optimizer()
    assert first is second
    assert "trap" in first._pipelines
    assert first._pipelines["trap"] is pipeline


def test_online_optimizer_survives_replanning_during_a_partition():
    """A live but partitioned device cannot be priced (``LinkDown``); the
    tick is skipped like an unplaceable one, and the loop is still there to
    migrate once the network heals."""
    home = _trap_home()
    optimizer = home.enable_optimizer(OptimizerConfig(
        fps=8.0, replan_interval_s=0.5, replan_threshold_frac=0.05,
    ))
    pipeline = home.deploy_pipeline(
        _trap_config(fps=8.0, duration_s=4.0),
        strategy=COLOCATED, default_device="phone",
    )
    home.topology.partition("zeta")
    home.run(until=1.2)  # two ticks inside the partition
    assert optimizer._proc.alive
    assert optimizer.events == []
    # the SLO controller's placement rung takes the same path
    assert optimizer.replan_now(pipeline) is None
    home.topology.heal("zeta")
    home.run(until=5.5)
    optimizer.stop()
    home.run()
    assert [e.moves.get("stage") for e in optimizer.events] == [("alpha", "zeta")]


# -- which host serves a call ----------------------------------------------------

def test_planner_does_not_price_a_host_on_a_crashed_device():
    home = _trap_home()
    config = _trap_config()
    home.crash_device("zeta")
    live = {name: dev for name, dev in home.devices.items() if dev.up}
    assert sorted(live) == ["alpha", "phone"]
    # nothing unregisters a dead host: the registry still lists zeta's
    assert home.registry.devices_hosting("heavy") == ["alpha", "zeta"]
    model = CostModel(config, live, home.registry, home.topology)
    on_phone = {"camera": "phone", "stage": "phone", "sink": "phone"}
    # the call can only be served by alpha, 6 x 0.05 s however it is routed
    assert model.module_cost(config.module("stage"), "phone") > 6 * HEAVY_COST_S
    load = model.utilization(on_phone)
    assert set(load) == {"alpha", "phone"}
    assert load["alpha"] > 0.0
    plan = plan_optimized(config, live, home.registry, home.topology, "phone")
    assert set(plan.assignments.values()) <= set(live)


def test_planner_skips_a_crashed_host_on_an_up_device():
    home = _trap_home()
    config = _trap_config()
    home.registry.host_on("heavy", "zeta").crash()
    assert home.device("zeta").up
    model = CostModel(config, home.devices, home.registry, home.topology)
    # not even a module sitting on zeta is served by zeta's dead host
    on_zeta = {"camera": "phone", "stage": "zeta", "sink": "zeta"}
    assert model.module_cost(config.module("stage"), "zeta") > 6 * HEAVY_COST_S
    assert model.utilization(on_zeta)["alpha"] > 0.0
    home.registry.host_on("heavy", "alpha").crash()
    with pytest.raises(PlacementError, match="no live host"):
        plan_optimized(config, home.devices, home.registry, home.topology,
                       "phone")


def test_fallback_does_not_follow_a_service_to_a_crashed_device():
    """The registry keeps listing ``alpha``'s host after the crash; the
    heuristic used to sit ``stage`` beside it, and scoring that fallback
    over the live devices raised a bare ``KeyError: 'alpha'``."""
    home = _trap_home()
    config = _trap_config()
    home.crash_device("alpha")
    live = {name: dev for name, dev in home.devices.items() if dev.up}
    plan = plan_optimized(config, live, home.registry, home.topology, "phone")
    assert plan.assignments == {
        "camera": "phone", "stage": "zeta", "sink": "zeta"}
    # zeta is all the heuristic has left, so the search only confirms it
    assert plan.strategy == COLOCATED
    # the facade plans over every device of the home, up or not
    assert home.plan(config, COLOCATED).assignments == plan.assignments


def test_fallback_skips_a_crashed_host_on_an_up_device():
    home = _trap_home()
    config = _trap_config()
    home.registry.host_on("heavy", "alpha").crash()
    assert home.device("alpha").up
    assert home.plan(config, COLOCATED).assignments["stage"] == "zeta"
    home.registry.host_on("heavy", "zeta").crash()
    with pytest.raises(PlacementError, match="no live host"):
        home.plan(config, COLOCATED)


def test_online_optimizer_evacuates_a_crashed_device():
    """The ``stranded`` branch end to end: ``stage`` and ``sink`` sit on
    ``alpha`` when it crashes. The next tick must move them to ``zeta``
    whatever the hysteresis says; the loop used to die on that tick."""
    home = _trap_home()
    home.enable_audit()
    optimizer = home.enable_optimizer(OptimizerConfig(
        fps=8.0, replan_interval_s=0.5, replan_threshold_frac=0.99,
    ))
    pipeline = home.deploy_pipeline(
        _trap_config(fps=8.0, duration_s=3.0),
        strategy=COLOCATED, default_device="phone",
    )
    assert pipeline.placement.assignments["stage"] == "alpha"
    home.kernel.schedule(0.3, lambda: home.crash_device("alpha"))
    home.run(until=3.0)
    assert optimizer._proc.alive
    optimizer.stop()
    home.run()

    [event] = optimizer.events
    assert event.at == 0.5
    assert event.moves == {"stage": ("alpha", "zeta"),
                           "sink": ("alpha", "zeta")}
    assert event.predicted_before_s == float("inf")
    assert pipeline.placement.assignments == {
        "camera": "phone", "stage": "zeta", "sink": "zeta"}
    # frames complete on zeta after the move
    assert pipeline.metrics.counter("frames_completed") > 5
    assert home.check_invariants() == []


def test_every_term_routes_a_call_to_the_same_host():
    """The latency term ranks remote hosts by overhead + request + reply +
    service time and so routes the phone's calls to the laptop; billing
    used to rank by request + service time only and charged the cloud."""
    home = VideoPipe(seed=5)
    home.add_device("phone")
    home.add_device(DeviceSpec(name="near", kind="laptop", cpu_factor=1.0,
                               cores=4, supports_containers=True))
    home.add_cloud_device()
    for device, port in (("near", 7920), ("cloud", 7921)):
        home.deploy_service(
            FunctionService("heavy", lambda p, c: {"done": True},
                            reference_cost_s=0.004),
            device, port=port,
        )
    config = _trap_config()
    model = CostModel(config, home.devices, home.registry, home.topology,
                      optimizer=OptimizerConfig(cloud_bias_s=0.004))
    on_phone = {"camera": "phone", "stage": "phone", "sink": "phone"}
    load = model.utilization(on_phone)
    assert load["near"] > 0.0
    assert load["cloud"] == 0.0
    assert model.cloud_penalty(on_phone) == 0.0
    host, remote_penalty_s = model._serving_host("heavy", "phone")
    assert host.device.name == "near"
    assert model.module_cost(config.module("stage"), "phone") == pytest.approx(
        home.device("phone").spec.compute_time(Module.event_overhead_s)
        + host.device.spec.compute_time(0.004) + remote_penalty_s
    )
