"""The control plane's referee: every controller decision of one composed home.

One home runs every periodic controller at once: the chaos-fitness shape
(the desktop crashes mid-run, heartbeats detect it, evacuation moves the
stranded modules, the desktop comes back), plus autoscaling,
an SLO on the pipeline, the online optimizer, a live-ops canary, monitoring
and audit. The activity module is left unpinned so the optimizer has a
module to move; the pose module stays pinned to the desktop as in
``examples/chaos_fitness.py``.

``goldens/actions.json`` holds every decision each controller made, as
plain tuples with times and measured floats by ``repr``, beside the digest
of the run's fingerprint (counters, exact latencies, final placement). A
refactor of the control plane that claims "the same decisions" must pass
this file without regenerating it. Regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/control

and review the golden diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from pathlib import Path

import pytest

from repro import FaultPlan, VideoPipe
from repro.apps import (
    fitness_pipeline_config,
    install_fitness_services,
    train_activity_recognizer,
)
from repro.liveops import CanaryPolicy
from repro.services import (
    ActivityClassifierService,
    PoseDetectorService,
    ScalingPolicy,
)
from repro.slo import SLO, SLOConfig

GOLDEN = Path(__file__).parent / "goldens" / "actions.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

SEED = 7
CRASH_AT, DOWN_FOR = 4.0, 2.0
UPGRADE_AT = 1.0
END_S = 9.0


def composed_home(recognizer):
    home = VideoPipe.paper_testbed(seed=SEED)
    home.add_device("laptop")
    install_fitness_services(home, recognizer=recognizer)
    home.deploy_service(PoseDetectorService(), "laptop")
    home.deploy_service(ActivityClassifierService(recognizer), "laptop")
    home.enable_audit()
    home.enable_monitoring()
    home.enable_autoscaling(ScalingPolicy(check_interval_s=0.25,
                                          queue_threshold=0.5))
    home.enable_optimizer()
    home.enable_slo(SLOConfig(check_interval_s=0.25, hysteresis_s=0.75,
                              recovery_hold_s=1.0))
    config = fitness_pipeline_config(fps=15.0, duration_s=END_S - 1.0)
    config.module("pose_detector_module").device = "desktop"
    pipeline = home.deploy_pipeline(
        config, default_device="phone",
        slo=SLO(p99_latency_s=0.1, min_fps=4.0, window_s=2.0),
    )
    home.enable_failure_detection(home_device="tv", period_s=0.25,
                                  miss_threshold=2)
    home.enable_self_healing(pipeline)
    home.enable_fault_injection(
        FaultPlan().device_crash(CRASH_AT, "desktop", down_for=DOWN_FOR))
    return home, pipeline


#: One plain tuple per action, per controller.
AS_TUPLE = {
    "autoscaler": lambda a, e: (
        repr(a.at), *a.target.split("@"), e["from_replicas"],
        e["to_replicas"], repr(e["avg_queue"]), a.reason),
    "slo": lambda a, e: (
        repr(a.at), a.target, e["step"], a.kind, e["depth_before"],
        e["depth_after"], a.reason),
    "optimizer": lambda a, e: (
        repr(a.at), a.target,
        sorted((m, src, dst) for m, (src, dst) in e["moves"].items()),
        repr(e["predicted_before_s"]), repr(e["predicted_after_s"]),
        repr(e["observed_mean_s"])),
    "detector": lambda a, e: (
        repr(a.at), a.target, a.kind, repr(e.get("mttr_s"))),
    "orchestrator": lambda a, e: (
        repr(a.at), f"{a.kind}:{a.target}", a.reason),
    "liveops": lambda a, e: (
        repr(a.at), *a.target.split("/"), a.kind, a.reason),
}


def decisions(home) -> dict[str, list[tuple]]:
    """Every controller decision, per controller, as plain tuples."""
    found = {controller: [] for controller in AS_TUPLE}
    for action in home.actions:
        found[action.controller].append(
            AS_TUPLE[action.controller](action, action.evidence))
    return found


def fingerprint_sha256(home, pipeline) -> str:
    metrics = pipeline.metrics
    fingerprint = {
        "now": home.now,
        "entered": metrics.counter("frames_entered"),
        "completed": metrics.counter("frames_completed"),
        "dropped": metrics.counter("frames_dropped"),
        "latencies": list(metrics.total_latencies),
        "stage_means_ms": metrics.stage_means_ms(),
        "placement": {m: pipeline.device_of(m) for m in pipeline.module_names()},
    }
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def same_instant_collisions(actions) -> list[tuple[float, str, list[str]]]:
    """``(time, target, controllers)`` wherever two controllers acted on
    one target at one instant."""
    acted = defaultdict(set)
    for action in actions:
        acted[(action.at, action.target)].add(action.controller)
    return [(at, target, sorted(names))
            for (at, target), names in sorted(acted.items())
            if len(names) > 1]


def run_once(recognizer, traced=False) -> tuple[dict, list]:
    """The run's record (what the golden holds) and its same-instant
    collisions; *traced* runs it with tracing on, which must change
    nothing, not even what the optimizer predicts."""
    home, pipeline = composed_home(recognizer)
    if traced:
        home.enable_tracing()
    home.run(until=UPGRADE_AT)
    home.upgrade_module(pipeline, "rep_counter_module",
                        policy=CanaryPolicy(min_mirrored=4,
                                            decision_timeout_s=3.0))
    home.run(until=END_S)
    violations = [v.describe() for v in home.check_invariants()]
    violations += [v.describe() for v in home.auditor.violations]
    # through JSON once, so tuples compare as the file has them
    return json.loads(json.dumps({
        "decisions": decisions(home),
        "fingerprint_sha256": fingerprint_sha256(home, pipeline),
        "violations": violations,
    })), same_instant_collisions(home.actions)


@pytest.fixture(scope="module")
def runs():
    recognizer = train_activity_recognizer(seed=1, train_subjects=3)
    return run_once(recognizer), run_once(recognizer, traced=True)


def test_composed_run_is_deterministic(runs):
    """Two runs, the second traced: equal records prove both determinism
    and that no controller reads the tracer."""
    assert runs[0] == runs[1]


def test_composed_run_is_audit_clean(runs):
    assert runs[0][0]["violations"] == []


def test_every_controller_acted(runs):
    decided = runs[0][0]["decisions"]
    assert all(decided.values()), decided


def test_decisions_match_golden(runs):
    actual = runs[0][0]
    if UPDATE or not GOLDEN.exists():
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(actual, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        if not UPDATE:
            pytest.fail(f"{GOLDEN.name} did not exist; wrote it — review"
                        " and commit, then re-run")
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert actual["fingerprint_sha256"] == golden["fingerprint_sha256"]
    for controller, expected in golden["decisions"].items():
        assert actual["decisions"][controller] == expected, (
            f"{controller} decisions moved off the golden")
    assert actual == golden


def test_no_two_controllers_act_on_one_target_at_one_instant(runs):
    """At t=6.0 the desktop has restarted but not yet answered a heartbeat.
    Placement and evacuation read one view of liveness
    (``VideoPipe.live_devices``), so neither moves a module there then."""
    assert runs[0][1] == []
