"""Per-frame version lineage: recording, querying, exporting."""

import json

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.core import VideoPipe
from repro.liveops import CanaryPolicy, LineageRecorder
from repro.sim import Kernel

MODULE = "pose_detector_module"


def fitness_home(seed=7):
    home = VideoPipe.paper_testbed(seed=seed)
    home.enable_liveops()
    services = install_fitness_services(home)
    app = FitnessApp(home, services)
    pipeline = app.deploy(fitness_pipeline_config(fps=8.0, duration_s=20.0))
    return home, pipeline


class TestRecording:
    def test_paths_record_modules_versions_and_services(self):
        home, pipeline = fitness_home()
        home.run_for(5.0)
        lineage = home.liveops.lineage
        assert lineage.frame_count > 0
        key = next(iter(lineage._records))
        path = lineage.path_of(*key)
        assert path, "a touched frame must have steps"
        step = path[0]
        assert step["module"] == MODULE  # first DATA hop after the source
        assert step["version"] == "v1"
        assert step["device"] in home.devices
        assert step["services"].get("pose_detector") == "v1"
        # ordered by time
        assert [s["t"] for s in path] == sorted(s["t"] for s in path)

    def test_versions_change_across_promotion(self):
        home, pipeline = fitness_home()
        home.enable_audit()
        home.run_for(3.0)
        home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=8.0),
        )
        home.run(until=25.0)
        lineage = home.liveops.lineage
        chains = {
            lineage.versions_of(*key)[0]
            for key in lineage._records
            if lineage.versions_of(*key)
        }
        # frames processed before the promotion crossed v1; later ones v2
        assert f"{MODULE}@v1" in chains
        assert f"{MODULE}@v2" in chains

    def test_eviction_caps_memory(self):
        lineage = LineageRecorder(Kernel(), max_frames=3)
        for fid in range(5):
            lineage.touch("p", fid, {"module": "m", "version": "v1"})
        assert lineage.frame_count == 3
        assert lineage.dropped_frames == 2
        assert lineage.path_of("p", 0) == []  # oldest evicted
        assert lineage.path_of("p", 4)


class TestExport:
    def test_export_json_roundtrips(self, tmp_path):
        home, pipeline = fitness_home()
        home.run_for(5.0)
        out = tmp_path / "lineage.json"
        out.write_text(json.dumps(home.liveops.lineage.as_dict()))
        data = json.loads(out.read_text())
        assert data["frames_recorded"] == len(data["frames"]) > 0
        assert data["touches"] == home.liveops.lineage.touches
        frame = data["frames"][0]
        assert frame["pipeline"] == pipeline.name
        assert {"module", "version", "device", "services", "t"} <= set(
            frame["path"][0]
        )

    def test_status_exposes_lineage_counters(self):
        home, _ = fitness_home()
        home.run_for(5.0)
        status = home.snapshot()["liveops"]
        assert status["lineage"]["frames_recorded"] > 0
        assert status["lineage"]["touches"] >= (
            status["lineage"]["frames_recorded"]
        )
