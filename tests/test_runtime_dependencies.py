"""``import repro`` needs only numpy, the one dependency ``pyproject.toml``
declares.

networkx and scipy are ``dev`` extras, kept as test oracles. Each test runs
a fresh interpreter; all but the first block both (``sys.modules[name] =
None`` makes every import of them fail) and then run a home whose code
path once needed one of them: the fitness home plans and routes over the
pipeline DAG and the home network, and the object-tracking home labels
connected components in every frame. A missing labeller used to fail
quietly — detection counted the frame completed and found nothing — so
the tracking home must create tracks, not merely run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCK = """
import sys
for name in ("networkx", "scipy"):
    sys.modules[name] = None  # every "import networkx..." now fails
"""

FITNESS = BLOCK + """
from repro import VideoPipe
from repro.apps import (FitnessApp, fitness_pipeline_config,
                        install_fitness_services, train_activity_recognizer)
home = VideoPipe.paper_testbed(seed=3)
services = install_fitness_services(
    home, recognizer=train_activity_recognizer(seed=3, train_subjects=2))
pipeline = FitnessApp(home, services).deploy(fitness_pipeline_config(fps=10.0))
home.run(until=1.0)
print(pipeline.metrics.counter("frames_completed"))
"""

TRACKING = BLOCK + """
from repro import VideoPipe
from repro.apps import scene_pipeline_config
from repro.devices import DeviceSpec
from repro.services import ObjectDetectionService, ObjectTrackingService
home = VideoPipe.paper_testbed(seed=51)
home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                           cores=8, supports_containers=False))
home.deploy_service(ObjectDetectionService(), "desktop")
home.deploy_service(ObjectTrackingService(), "desktop")
pipeline = home.deploy_pipeline(scene_pipeline_config(fps=10.0, duration_s=1.0))
home.run(until=2.0)
print(pipeline.metrics.counter("tracks_created"))
"""


def run(script: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), path])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_neither_library():
    loaded = run("import sys, repro\n"
                 "print(sorted({'networkx', 'scipy'} & set(sys.modules)))")
    assert loaded.strip() == "[]"


def test_a_fitness_home_runs_without_scipy():
    assert int(run(FITNESS)) > 0


def test_an_object_tracking_home_tracks_without_scipy():
    assert int(run(TRACKING)) > 0
