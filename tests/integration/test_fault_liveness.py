"""Liveness: a pipeline keeps running after every outage it survives.

The source holds one §2.3 credit, so the credit is the pipeline's only
clock. Each cell below crashes one device that hosts a module of one
example home for one second and asks, with no watchdog and no
self-healing, that the stream comes back: the first frame a pipeline
completes after the device's return was admitted at most one frame
interval after that return, and every admitted frame gave its credit back.

``custom_pipeline`` has no credit source and ``chaos_fitness`` brings its
own faults, so eight example homes make 24 cells. The crash lands at
1.6 s: ``canary_upgrade`` starts its upgrade at 1.5 s, which needs the
pose detector's one replica up. Tier-1 runs the quickstart row; the
``REPRO_FUZZ_N`` budget of the audit job (10x the tier-1 default) runs
every row.
"""

import os

import pytest

from repro.faults import FaultPlan
from scenarios import EXAMPLE_SCENARIOS

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))
CRASH_AT, DOWN_FOR = 1.6, 1.0
BACK_AT = CRASH_AT + DOWN_FOR

#: example -> every device that hosts one of its modules (checked per cell)
ROWS = {
    "quickstart.py": ("desktop", "phone", "tv"),
    "fitness_app.py": ("desktop", "phone", "tv"),
    "gesture_control.py": ("camera", "desktop", "phone", "tv"),
    "fall_detection.py": ("camera", "desktop", "tv"),
    "monitoring_autoscaling.py": ("camera", "desktop", "phone", "tv"),
    "object_tracking.py": ("camera", "desktop"),
    "multi_camera_scene.py": ("camera", "desktop"),
    "canary_upgrade.py": ("desktop", "phone", "tv"),
}
if FUZZ_N < 10 * 200:
    ROWS = {"quickstart.py": ROWS["quickstart.py"]}
CELLS = [(example, device) for example, row in ROWS.items()
         for device in row]


def record_frames(metrics):
    """Spy on *metrics*: frame id -> admission time, and -> completion
    time."""
    admitted, completed = {}, {}
    enter, complete = metrics.frame_entered, metrics.frame_completed

    def frame_entered(frame_id, now, captured=None):
        admitted[frame_id] = now
        enter(frame_id, now, captured)

    def frame_completed(frame_id, now):
        completed[frame_id] = now
        return complete(frame_id, now)

    metrics.frame_entered = frame_entered
    metrics.frame_completed = frame_completed
    return admitted, completed


@pytest.mark.parametrize("example, device", CELLS,
                         ids=[f"{e[:-3]}-{d}" for e, d in CELLS])
def test_the_stream_comes_back_after_an_outage(example, device):
    home, run_fn = EXAMPLE_SCENARIOS[example](7)
    hosts = {d for p in home.pipelines for d in p.placement.assignments.values()}
    assert hosts == set(ROWS[example])
    home.enable_fault_injection(
        FaultPlan().device_crash(CRASH_AT, device, down_for=DOWN_FOR))
    frames = [(p, *record_frames(p.metrics)) for p in home.pipelines]
    run_fn()
    for pipeline, admitted, completed in frames:
        interval = 1.0 / pipeline.module_instance(
            pipeline.config.source_module).fps
        after = sorted((t, f) for f, t in completed.items() if t > BACK_AT)
        assert after, f"{pipeline.name} completed nothing after {BACK_AT} s"
        first = after[0][1]
        assert admitted[first] <= BACK_AT + interval, (
            pipeline.name, admitted[first])
        count = pipeline.metrics.counter
        assert count("ready_signals") == count("frames_entered")
        assert not pipeline.wiring.credits_owed
