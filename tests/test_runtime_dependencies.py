"""``import repro`` needs only the dependencies ``pyproject.toml`` declares.

scipy is a ``dev`` extra (``pyproject.toml``), yet ``vision/object_detector``
imported ``scipy.ndimage`` at module level and ``import repro`` reaches that
module (``core.videopipe → audit → services → builtin.activity → vision``),
so a plain install could not even import the package. The one ``ndimage``
call now imports it where it runs. This test blocks scipy in a fresh
interpreter and runs a paper-testbed fitness home for one simulated second.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # every "import scipy..." now fails
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


def test_a_fitness_home_runs_without_scipy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), path])))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0
