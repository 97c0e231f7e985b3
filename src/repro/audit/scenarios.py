"""Determinism scenarios: every ``examples/`` script as a harness scenario.

Each scenario mirrors one example's system shape — same devices, services,
pipeline(s) and features — at a shortened duration so the harness can run
each one twice in a few seconds. The mapping is enforced by
``tests/integration/test_determinism_examples.py``: a new example without a
scenario here fails the coverage test.

A scenario is ``scenario(seed) -> (home, run_fn)``; ``run_fn()`` drives the
run and returns a JSON-able fingerprint (frame counters, exact latency
lists, and where relevant trace/scaling digests). Model training is cached
per (seed, size) — training is deterministic, and reusing the trained model
keeps the harness fast without weakening the check (the kernel event
stream, not the training, is what the tap diffs).

This module imports :mod:`repro.apps`, so it is *not* re-exported from
``repro.audit`` (that would make ``repro`` import itself); import it
explicitly::

    from repro.audit.scenarios import EXAMPLE_SCENARIOS
"""

from __future__ import annotations

from functools import lru_cache

from ..core.videopipe import VideoPipe
from ..devices.spec import DeviceSpec
from ..faults.plan import FaultPlan
from ..pipeline.config import PipelineConfig
from ..pipeline.pipeline import Pipeline

DURATION_S = 4.0
RUN_UNTIL = 5.0


@lru_cache(maxsize=None)
def _activity_recognizer(seed: int = 1):
    from ..apps import train_activity_recognizer

    return train_activity_recognizer(seed=seed, train_subjects=3)


@lru_cache(maxsize=None)
def _gesture_recognizer(seed: int = 1):
    from ..apps import train_gesture_recognizer

    return train_gesture_recognizer(seed=seed, train_subjects=3)


def _fingerprint(pipeline: Pipeline) -> dict:
    """The bit-for-bit identity of one pipeline's run: exact counters and
    exact (un-rounded) latency streams."""
    metrics = pipeline.metrics
    return {
        "pipeline": pipeline.name,
        "entered": metrics.counter("frames_entered"),
        "completed": metrics.counter("frames_completed"),
        "dropped": metrics.counter("frames_dropped"),
        "latencies": list(metrics.total_latencies),
        "stage_means_ms": metrics.stage_means_ms(),
    }


def _run(home: VideoPipe, *pipelines: Pipeline, until: float = RUN_UNTIL):
    def run_fn() -> dict:
        home.run(until=until)
        return {
            "now": home.now,
            "pipelines": [_fingerprint(p) for p in pipelines],
        }

    return run_fn


def _deploy_fitness(home: VideoPipe, architecture: str = "videopipe",
                    fps: float = 10.0, config: PipelineConfig | None = None):
    from ..apps import (
        FitnessApp,
        fitness_pipeline_config,
        install_fitness_services,
    )

    services = install_fitness_services(
        home,
        recognizer=_activity_recognizer(),
        baseline_layout=(architecture == "baseline"),
    )
    app = FitnessApp(home, services, architecture=architecture)
    pipeline = app.deploy(
        config or fitness_pipeline_config(fps=fps, duration_s=DURATION_S)
    )
    return services, pipeline


def quickstart(seed: int):
    """examples/quickstart.py: the Fig. 4 fitness pipeline, co-located."""
    home = VideoPipe.paper_testbed(seed=seed)
    _, pipeline = _deploy_fitness(home)
    return home, _run(home, pipeline)


def fitness_app(seed: int):
    """examples/fitness_app.py: VideoPipe vs the Fig. 5 baseline. Both
    architectures run, but only the VideoPipe home's kernel is tapped: the
    baseline home (the remote-service RPC path) is held by the run
    fingerprint alone, so this scenario's event stream — and its committed
    digest — equal ``quickstart``'s."""
    home_vp = VideoPipe.paper_testbed(seed=seed)
    _, pipe_vp = _deploy_fitness(home_vp, architecture="videopipe")
    home_base = VideoPipe.paper_testbed(seed=seed)
    _, pipe_base = _deploy_fitness(home_base, architecture="baseline")

    run_vp = _run(home_vp, pipe_vp)
    run_base = _run(home_base, pipe_base)

    def run_fn() -> dict:
        return {"videopipe": run_vp(), "baseline": run_base()}

    # the tap observes home_vp's kernel; home_base rides along inside the
    # fingerprint (tests/services/test_host_streams.py taps the remote path)
    return home_vp, run_fn


def gesture_control(seed: int):
    """examples/gesture_control.py: two pipelines sharing one pose service."""
    from ..apps import (
        FitnessApp,
        fitness_pipeline_config,
        gesture_pipeline_config,
        install_fitness_services,
        install_gesture_services,
    )

    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    fitness = install_fitness_services(home, recognizer=_activity_recognizer())
    gesture = install_gesture_services(home, recognizer=_gesture_recognizer())
    app = FitnessApp(home, fitness)
    fitness_pipe = app.deploy(
        fitness_pipeline_config(fps=10.0, duration_s=DURATION_S)
    )
    gesture_pipe = home.deploy_pipeline(
        gesture_pipeline_config(fps=10.0, duration_s=DURATION_S, motion="clap")
    )
    base_run = _run(home, fitness_pipe, gesture_pipe)

    def run_fn() -> dict:
        result = base_run()
        result["iot_log"] = [
            (event.at, event.target, event.new_state)
            for event in gesture.fleet.log
        ]
        return result

    return home, run_fn


def fall_detection(seed: int):
    """examples/fall_detection.py: the §4.3 fall detector (fall motion)."""
    from ..apps import (
        fall_pipeline_config,
        install_fitness_services,
        install_gesture_services,
    )

    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    install_fitness_services(home, recognizer=_activity_recognizer())
    install_gesture_services(home, recognizer=_gesture_recognizer())
    pipeline = home.deploy_pipeline(
        fall_pipeline_config(fps=10.0, duration_s=DURATION_S, motion="fall")
    )
    base_run = _run(home, pipeline)

    def run_fn() -> dict:
        result = base_run()
        result["falls"] = pipeline.metrics.counter("falls_detected")
        return result

    return home, run_fn


def custom_pipeline(seed: int):
    """examples/custom_pipeline.py: user-defined modules on constrained
    devices, Listing-1 text config (simulated-kernel half only)."""
    from ..pipeline.parser import parse_pipeline_text
    from ..runtime.module import Module
    from ..runtime.registry import register_module
    from ..services.base import FunctionService

    # the example's three modules, registered once per process
    if not hasattr(custom_pipeline, "_registered"):
        @register_module("./AuditTickerModule.js")
        class TickerModule(Module):
            def __init__(self, count=10, interval_s=0.2):
                self.count = count
                self.interval_s = interval_s

            def init(self, ctx):
                kernel = ctx._runtime.kernel

                def ticker():
                    for n in range(self.count):
                        ctx.call_next({"n": n, "sent_at": ctx.now})
                        yield self.interval_s

                kernel.process(ticker(), name="audit-ticker")

            def event_received(self, ctx, event):
                pass

        @register_module("./AuditSquarerModule.js")
        class SquarerModule(Module):
            def event_received(self, ctx, event):
                def flow():
                    result = yield ctx.call_service(
                        "squarer", event.payload["n"]
                    )
                    ctx.call_next(dict(event.payload, squared=result))

                return flow()

        @register_module("./AuditPrinterModule.js")
        class PrinterModule(Module):
            def __init__(self):
                self.results = []

            def event_received(self, ctx, event):
                self.results.append(
                    (event.payload["n"], event.payload["squared"],
                     ctx.now - event.payload["sent_at"])
                )

        custom_pipeline._registered = True

    config_text = """
    modules : [
        { name: ticker_module
          include ("./AuditTickerModule.js")
          endpoint: ["bind#tcp://*:5950"]
          next_module: squarer_module }
        { name: squarer_module
          include ("./AuditSquarerModule.js")
          service: ['squarer']
          endpoint: ["bind#tcp://*:5951"]
          next_module: printer_module }
        { name: printer_module
          include ("./AuditPrinterModule.js")
          endpoint: ["bind#tcp://*:5952"]
          next_module: [] }
    ]
    """
    home = VideoPipe(seed=seed)
    home.add_device("watch")
    home.add_device("laptop")
    home.add_device("fridge")
    home.deploy_service(
        FunctionService("squarer", lambda n, ctx: n * n,
                        reference_cost_s=0.005, default_port=7400),
        "laptop",
    )
    config = parse_pipeline_text(config_text, name="custom")
    config.module("ticker_module").device = "watch"
    config.module("printer_module").device = "fridge"
    pipeline = home.deploy_pipeline(config, default_device="watch")
    printer = pipeline.module_instance("printer_module")

    def run_fn() -> dict:
        home.run(until=RUN_UNTIL)
        return {"now": home.now, "results": list(printer.results)}

    return home, run_fn


def monitoring_autoscaling(seed: int):
    """examples/monitoring_autoscaling.py: monitor + autoscaler under a
    two-pipeline overload of the shared pose service."""
    from ..apps import (
        FitnessApp,
        fitness_pipeline_config,
        gesture_pipeline_config,
        install_fitness_services,
        install_gesture_services,
    )
    from ..services.scaling import ScalingPolicy

    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    fitness = install_fitness_services(home, recognizer=_activity_recognizer())
    install_gesture_services(home, recognizer=_gesture_recognizer())
    home.enable_monitoring()
    home.enable_autoscaling(ScalingPolicy(
        check_interval_s=0.5, queue_threshold=0.75, max_replicas=2,
    ))
    app = FitnessApp(home, fitness)
    p_fit = app.deploy(
        fitness_pipeline_config(fps=30.0, duration_s=DURATION_S)
    )
    p_gest = home.deploy_pipeline(
        gesture_pipeline_config(fps=30.0, duration_s=DURATION_S)
    )
    base_run = _run(home, p_fit, p_gest, until=RUN_UNTIL + 2.0)

    def run_fn() -> dict:
        result = base_run()
        result["scaling_events"] = [
            (a.at, a.target.split("@")[0], a.evidence["from_replicas"],
             a.evidence["to_replicas"], a.reason)
            for a in home.actions if a.controller == "autoscaler"
        ]
        return result

    return home, run_fn


def object_tracking(seed: int):
    """examples/object_tracking.py: rendered-pixel detection + stateless
    tracking association."""
    from ..apps import scene_pipeline_config
    from ..services import ObjectDetectionService, ObjectTrackingService

    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    home.deploy_service(ObjectDetectionService(), "desktop")
    home.deploy_service(ObjectTrackingService(), "desktop")
    pipeline = home.deploy_pipeline(
        scene_pipeline_config(fps=10.0, duration_s=DURATION_S)
    )
    tracker = pipeline.module_instance("object_tracking_module")
    base_run = _run(home, pipeline)

    def run_fn() -> dict:
        result = base_run()
        result["appeared"] = list(tracker.appeared)
        return result

    return home, run_fn


def multi_camera_scene(seed: int):
    """examples/multi_camera_scene.py: three cameras, fan-in fusion DAG,
    cross-camera re-ID association against shared ground truth."""
    from ..apps import install_scene_services, multi_camera_pipeline_config
    from ..vision import fusion_accuracy

    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    install_scene_services(home, "desktop")
    pipeline = home.deploy_pipeline(
        multi_camera_pipeline_config(fps=8.0, duration_s=DURATION_S)
    )
    fusion = pipeline.module_instance("scene_fusion_module")
    base_run = _run(home, pipeline)

    def run_fn() -> dict:
        result = base_run()
        accuracy = fusion_accuracy(fusion.history)
        result["fusion"] = {
            "accuracy": accuracy,
            "tracks": [t.as_dict() for t in fusion.core.tracks()],
            "scene_graph": fusion.scene_graph(),
        }
        return result

    return home, run_fn


def chaos_fitness(seed: int):
    """examples/chaos_fitness.py: crash the compute device mid-run, detect,
    evacuate, recover — the drop/failure paths under audit."""
    from ..apps import (
        FitnessApp,
        fitness_pipeline_config,
        install_fitness_services,
    )
    from ..services import ActivityClassifierService, PoseDetectorService

    crash_at, down_for, duration = 2.0, 2.0, 7.0
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device("laptop")
    recognizer = _activity_recognizer()
    services = install_fitness_services(home, recognizer=recognizer)
    home.deploy_service(PoseDetectorService(), "laptop")
    home.deploy_service(ActivityClassifierService(recognizer), "laptop")
    config = fitness_pipeline_config(fps=10.0, duration_s=duration)
    config.module("pose_detector_module").device = "desktop"
    config.module("activity_detector_module").device = "desktop"
    pipeline = FitnessApp(home, services).deploy(config)
    home.enable_failure_detection(home_device="tv", period_s=0.25,
                                  miss_threshold=2)
    home.enable_self_healing(pipeline)
    injector = home.enable_fault_injection(
        FaultPlan().device_crash(crash_at, "desktop", down_for=down_for)
    )
    base_run = _run(home, pipeline, until=duration + 1.0)

    def run_fn() -> dict:
        result = base_run()
        result["fault_trace"] = list(injector.trace)
        result["detector_events"] = [
            (a.at, a.target, a.kind)
            for a in home.actions if a.controller == "detector"
        ]
        return result

    return home, run_fn


def canary_upgrade(seed: int):
    """examples/canary_upgrade.py: hot v1 -> v2 pose-detector upgrade,
    judged on mirrored live traffic, auto-promoted mid-stream."""
    from ..liveops import CanaryPolicy

    home = VideoPipe.paper_testbed(seed=seed)
    home.enable_liveops()
    _, pipeline = _deploy_fitness(home)
    base_run = _run(home, pipeline)

    def run_fn() -> dict:
        home.run(until=1.5)
        upgrade = home.upgrade_module(
            pipeline, "pose_detector_module",
            policy=CanaryPolicy(min_mirrored=4, decision_timeout_s=3.0),
        )
        result = base_run()
        result["upgrade"] = {
            "state": upgrade.state,
            "mirrored_frames": upgrade.mirrored_frames,
            "decided_at": upgrade.decided_at,
            "live_version": pipeline.wiring.version_of(
                "pose_detector_module"
            ),
        }
        result["lineage_frames"] = home.liveops.lineage.frame_count
        return result

    return home, run_fn


#: example filename -> scenario; the coverage test keeps this exhaustive.
EXAMPLE_SCENARIOS = {
    "quickstart.py": quickstart,
    "fitness_app.py": fitness_app,
    "gesture_control.py": gesture_control,
    "fall_detection.py": fall_detection,
    "custom_pipeline.py": custom_pipeline,
    "monitoring_autoscaling.py": monitoring_autoscaling,
    "object_tracking.py": object_tracking,
    "chaos_fitness.py": chaos_fitness,
    "multi_camera_scene.py": multi_camera_scene,
    "canary_upgrade.py": canary_upgrade,
}
