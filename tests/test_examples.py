"""Every example script must run clean — they are part of the deliverable.

Each example is executed once, in a subprocess (its own interpreter, like a
user would run it) with a timeout, and its output is spot-checked. The run
blocks networkx and scipy, the dev-only test oracles, so it also shows the
example needs numpy alone (``tests/test_runtime_dependencies.py`` holds
that no file under ``src/repro`` or ``examples/`` imports either).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Runs the script named by its first argument as ``__main__`` after making
#: every import of networkx or scipy fail.
NUMPY_ALONE = ('import runpy, sys; sys.modules["networkx"] = sys.modules["scipy"]'
               ' = None; sys.argv = sys.argv[1:];'
               ' runpy.run_path(sys.argv[0], run_name="__main__")')

EXPECTED = {
    "quickstart.py": ["end-to-end frame rate", "TV displayed"],
    "fitness_app.py": ["Table 2", "Fig. 6", "pose_detection"],
    "gesture_control.py": ["IoT command log", "living_room_light"],
    "fall_detection.py": ["falls detected = 1", "falls detected = 0"],
    "custom_pipeline.py": ["placement", "realtime run delivered"],
    "monitoring_autoscaling.py": ["autoscaler decisions", "replicas"],
    # a detector that labels nothing still exits 0: ask for a track
    "object_tracking.py": ["identities discovered", "live tracks", "track #1"],
    "chaos_fitness.py": ["device_crash -> desktop", "MTTR", "post-recovery"],
    "canary_upgrade.py": ["auto-promoted", "zero frames lost",
                          "lineage recorded"],
    "multi_camera_scene.py": ["scene graph", "fused world tracks",
                              "fusion accuracy vs ground truth"],
}


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED), (
        "examples on disk and the expectations table diverged"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ALONE, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in EXPECTED[script]:
        assert needle in result.stdout, (script, needle)
