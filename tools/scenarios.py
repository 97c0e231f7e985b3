"""Determinism scenarios: every ``examples/`` script's own home, shortened.

Each example builds its home once, in its ``build(...)`` function, and its
``main()`` calls ``build`` with the example's values. A scenario calls the
same ``build`` with the harness's seed, shorter durations and recognizers
trained once per process on fewer subjects (training is deterministic, and
the kernel's event stream, not the training, is what the tap diffs). So a
scenario is ``scenario(seed) -> (home, run_fn)``, the shape
:mod:`repro.audit.determinism` takes: ``home`` is the first thing ``build``
returns, the one the harness taps, and ``run_fn()`` runs the home and
returns a JSON-able fingerprint of exact frame counters and latency lists,
plus the fields its entry below adds (an IoT log, a fault trace, an upgrade
verdict, ...). The table builds nothing itself.

The tests (``tests/conftest.py`` puts ``tools/`` on ``sys.path``),
``tools/check_determinism.py`` and ``tools/event_histogram.py`` import it::

    from scenarios import EXAMPLE_SCENARIOS

``tests/integration/test_determinism_examples.py`` keeps the table
exhaustive: an example without a ``build`` or an entry fails it.
"""

from __future__ import annotations

import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

from repro.apps import train_activity_recognizer, train_gesture_recognizer
from repro.liveops import CanaryPolicy
from repro.vision import fusion_accuracy

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
DURATION_S = 4.0
RUN_UNTIL = 5.0


def example(name: str):
    """``examples/<name>.py`` as a module, loaded once per process (the
    custom pipeline's modules register their include names on import)."""
    key = f"examples.{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, EXAMPLES / f"{name}.py")
        sys.modules[key] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]


@lru_cache(maxsize=None)
def activity_recognizer():
    return train_activity_recognizer(seed=1, train_subjects=3)


@lru_cache(maxsize=None)
def gesture_recognizer():
    return train_gesture_recognizer(seed=1, train_subjects=3)


def run(home, *pipelines, until: float = RUN_UNTIL) -> dict:
    """Run *home* to *until*: the clock, and each pipeline's exact counters
    and (un-rounded) latency stream."""
    home.run(until=until)
    return {"now": home.now, "pipelines": [{
        "pipeline": pipeline.name,
        "entered": pipeline.metrics.counter("frames_entered"),
        "completed": pipeline.metrics.counter("frames_completed"),
        "dropped": pipeline.metrics.counter("frames_dropped"),
        "latencies": list(pipeline.metrics.total_latencies),
        "stage_means_ms": pipeline.metrics.stage_means_ms(),
    } for pipeline in pipelines]}


def scenario(name: str, fields, **args):
    """``examples/<name>.py``'s ``build(seed=seed, **args)``, fingerprinted
    by ``fields(*built)``. A callable argument is a trained recognizer,
    called when the scenario builds."""

    def build(seed: int):
        values = {k: v() if callable(v) else v for k, v in args.items()}
        built = example(name).build(seed=seed, **values)
        return built[0], lambda: fields(*built)

    return build


def custom(home, pipeline) -> dict:
    home.run(until=RUN_UNTIL)
    printer = pipeline.module_instance("printer_module")
    return {"now": home.now, "results": list(printer.results)}


def fusion(home, pipeline) -> dict:
    module = pipeline.module_instance("scene_fusion_module")
    return {**run(home, pipeline), "fusion": {
        "accuracy": fusion_accuracy(module.history),
        "tracks": [t.as_dict() for t in module.core.tracks()],
        "scene_graph": module.scene_graph(),
    }}


def chaos(home, pipeline, injector) -> dict:
    return {**run(home, pipeline, until=8.0),
            "fault_trace": list(injector.trace),
            "detector_events": [(a.at, a.target, a.kind) for a in home.actions
                                if a.controller == "detector"]}


def canary(home, pipeline) -> dict:
    home.run(until=1.5)
    upgrade = home.upgrade_module(
        pipeline, "pose_detector_module",
        policy=CanaryPolicy(min_mirrored=4, decision_timeout_s=3.0))
    return {**run(home, pipeline), "upgrade": {
        "state": upgrade.state,
        "mirrored_frames": upgrade.mirrored_frames,
        "decided_at": upgrade.decided_at,
        "live_version": pipeline.wiring.version_of("pose_detector_module"),
    }, "lineage_frames": home.liveops.lineage.frame_count}


# the shortened capture and the cached recognizer(s) most entries pass
SHORT = {"duration_s": DURATION_S, "recognizer": activity_recognizer}
BOTH = {**SHORT, "gesture_recognizer": gesture_recognizer}

#: example filename -> scenario; the coverage test keeps this exhaustive.
EXAMPLE_SCENARIOS = {
    "quickstart.py": scenario(
        "quickstart", lambda home, pipeline, _: run(home, pipeline),
        fps=10.0, **SHORT),
    # only the VideoPipe home's kernel is tapped, so this entry's stream
    # digest equals quickstart's; the baseline home (the remote-service RPC
    # path) is held by the fingerprint alone
    "fitness_app.py": scenario(
        "fitness_app", lambda vp, vp_pipeline, base, base_pipeline: {
            "videopipe": run(vp, vp_pipeline),
            "baseline": run(base, base_pipeline)},
        fps=10.0, **SHORT),
    "gesture_control.py": scenario(
        "gesture_control", lambda home, fitness, gesture, services: {
            **run(home, fitness, gesture),
            "iot_log": [(e.at, e.target, e.new_state)
                        for e in services.fleet.log]},
        **BOTH),
    "fall_detection.py": scenario(
        "fall_detection", lambda home, pipeline, _: {
            **run(home, pipeline),
            "falls": pipeline.metrics.counter("falls_detected")},
        motion="fall", **BOTH),
    "custom_pipeline.py": scenario("custom_pipeline", custom),
    "monitoring_autoscaling.py": scenario(
        "monitoring_autoscaling", lambda home, fitness, gesture, _: {
            **run(home, fitness, gesture, until=RUN_UNTIL + 2.0),
            "scaling_events": [
                (a.at, a.target.split("@")[0], a.evidence["from_replicas"],
                 a.evidence["to_replicas"], a.reason)
                for a in home.actions if a.controller == "autoscaler"]},
        **BOTH),
    "object_tracking.py": scenario(
        "object_tracking", lambda home, pipeline: {
            **run(home, pipeline),
            "appeared": list(pipeline.module_instance(
                "object_tracking_module").appeared)},
        duration_s=DURATION_S),
    "chaos_fitness.py": scenario(
        "chaos_fitness", chaos, recognizer=activity_recognizer,
        crash_at=2.0, down_for=2.0, duration_s=7.0),
    "multi_camera_scene.py": scenario(
        "multi_camera_scene", fusion, duration_s=DURATION_S),
    "canary_upgrade.py": scenario("canary_upgrade", canary, fps=10.0, **SHORT),
}
