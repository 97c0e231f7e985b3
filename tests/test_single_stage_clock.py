"""Structural guard: one stage clock, the runtime's.

Fig. 6 splits a frame's latency into Load Frame, Pose, Activity Detect,
Rep Count and Total Duration. The module worker times each handler of a
module that names a ``stage`` (and the wait before it, for a
``load_stage``), and a sink's completion times Total Duration from the
frame's capture. No module times itself: hand-written timers each computed
their stage their own way, and two apps reported no Total Duration.
"""

import ast
from pathlib import Path

import pytest

from repro.apps.modules import PoseDetectionModule
from repro.frames import SyntheticCamera
from repro.motion import Squat
from repro.runtime.module import FunctionModule
from repro.services import FunctionService, LocalServiceStub, ServiceHost

from .runtime.conftest import RuntimeHome

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: what a module would call to time a stage by hand
TIMERS = {"record_stage", "service_prepare_s", "stage_timed"}


def attribute_calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def test_no_app_times_a_stage():
    files = [*(SRC / "apps").rglob("*.py"), *(SRC / "fleet").rglob("*.py"),
             *(ROOT / "examples").rglob("*.py")]
    offenders = [
        f"{path.relative_to(ROOT).as_posix()}:{call.lineno}"
        for path in sorted(files)
        for call in attribute_calls(path)
        if call.func.attr in TIMERS
    ]
    assert offenders == []


def test_only_the_runtime_emits_a_stage():
    """``observe.stage`` is called only under ``runtime/``, and only it
    feeds the collector's stage samples."""
    callers = {
        (path.relative_to(SRC).as_posix(), call.func.attr)
        for path in SRC.rglob("*.py")
        for call in attribute_calls(path)
        if (call.func.attr == "stage" and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "observe")
        or call.func.attr == "stage_timed"
    }
    assert {path for path, _ in callers} == {
        "runtime/moduleruntime.py", "runtime/observe.py"}
    assert ("runtime/observe.py", "stage_timed") in callers


# -- the clock's rules ----------------------------------------------------------
class Staged(FunctionModule):
    stage = "staged"


def staged_home(handle):
    """A staged module on the phone and a sender that feeds it one event;
    returns the run home's collector and the staged deployment."""
    home = RuntimeHome()
    wiring = home.wiring({"a": ("phone", 5000), "m": ("phone", 5001)})
    runtime = home.runtimes["phone"]
    sender = runtime.deploy("a", FunctionModule(lambda c, e: None),
                            wiring.address_of("a"), wiring)
    staged = runtime.deploy("m", Staged(handle), wiring.address_of("m"),
                            wiring)
    sender.ctx.call_module("m", {"n": 1})
    home.kernel.run()
    return wiring.metrics, staged


def test_a_staged_handler_that_raises_records_no_sample():
    def ok(ctx, event):
        yield 0.01

    def raises(ctx, event):
        yield 0.01
        raise RuntimeError("handler bug")

    metrics, _ = staged_home(ok)
    assert metrics.stage_means_ms() == {"staged": pytest.approx(10.0)}
    metrics, staged = staged_home(raises)
    assert len(staged.errors) == 1
    assert metrics.stage_means_ms() == {}


@pytest.mark.parametrize("detected", [False, True])
def test_a_pose_miss_records_no_total_duration(detected):
    """A miss completes its frame at the pose module, which has next
    modules: no Total Duration. A hit completes at the sink: one."""
    home = RuntimeHome()
    result = {"detected": detected, "keypoints": [[0.0, 0.0]],
              "visibility": [1.0], "score": 1.0}
    host = ServiceHost(home.kernel, home.devices["phone"],
                       FunctionService("pose_detector", lambda p, c: result),
                       home.transport)
    wiring = home.wiring(
        {"src": ("phone", 5000), "pose": ("phone", 5001),
         "sink": ("phone", 5002)},
        next_modules={"src": ["pose"], "pose": ["sink"]},
    )
    runtime = home.runtimes["phone"]

    def finish(ctx, event):
        ctx.release(event.payload["frame"])
        ctx.finish(event.payload["frame_id"])

    src = runtime.deploy("src", FunctionModule(lambda c, e: None),
                         wiring.address_of("src"), wiring)
    runtime.deploy("pose", PoseDetectionModule(), wiring.address_of("pose"),
                   wiring, {"pose_detector": LocalServiceStub(host)})
    runtime.deploy("sink", FunctionModule(finish), wiring.address_of("sink"),
                   wiring)
    frame = SyntheticCamera("phone", Squat()).capture(1, 0.0)
    src.ctx.frame_entered(1, frame.capture_time)
    src.ctx.call_next({"frame": src.ctx.store_frame(frame), "frame_id": 1,
                       "capture_time": frame.capture_time})
    home.kernel.run()
    metrics = wiring.metrics
    assert metrics.counter("frames_completed") == 1
    assert metrics.counter("pose_misses") == (0 if detected else 1)
    means = metrics.stage_means_ms()
    assert {"load_frame", "pose_detection"} <= set(means)
    assert ("total_duration" in means) is detected
    assert len(home.devices["phone"].frame_store) == 0


def test_a_fall_detection_home_reports_total_duration():
    from scenarios import EXAMPLE_SCENARIOS

    _, run = EXAMPLE_SCENARIOS["fall_detection.py"](1)
    pipeline = run()["pipelines"][0]
    means = pipeline["stage_means_ms"]
    assert pipeline["completed"] > 0
    assert set(means) == {"load_frame", "pose_detection", "total_duration"}
    assert means["total_duration"] > means["pose_detection"]
