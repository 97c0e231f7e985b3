"""Admission control: cost-model gating and conservation."""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.apps.gesture import (
    gesture_pipeline_config,
    install_gesture_services,
)
from repro.errors import AdmissionError, ConfigError
from repro.slo import SLO, SLOConfig
from repro.slo.admission import AdmissionController, pipeline_fps
from repro.slo.spec import ADMITTED, REJECTED

SLO_T = SLO(p99_latency_s=0.25, min_fps=4.0)


def guest_config(index, fps=12.0):
    config = gesture_pipeline_config(
        name=f"guest{index}", fps=fps, base_port=6000 + 20 * index,
        source_device="tv",
    )
    for module in config.modules:
        module.name = f"g{index}_{module.name}"
        module.next_modules = [f"g{index}_{n}" for n in module.next_modules]
    config.source = f"g{index}_gesture_video_module"
    return config


@pytest.fixture
def home(fitness_recognizer, gesture_recognizer):
    home = VideoPipe.paper_testbed(seed=7)
    install_fitness_services(home, recognizer=fitness_recognizer)
    install_gesture_services(home, recognizer=gesture_recognizer)
    return home


class TestPipelineFps:
    def test_reads_the_source_fps(self):
        assert pipeline_fps(fitness_pipeline_config(fps=17.0)) == 17.0

    def test_default_when_unset(self):
        config = fitness_pipeline_config(fps=10.0)
        del config.module(config.source_module).params["fps"]
        assert pipeline_fps(config) == 10.0


class TestDecide:
    def test_admits_under_threshold(self, home):
        controller = AdmissionController(home, SLOConfig())
        config = fitness_pipeline_config(fps=10.0)
        decision = controller.decide(config, home.plan(config))
        assert decision.action == ADMITTED
        assert decision.worst_utilization < 1.0
        assert decision.predicted
        assert controller.decisions == [decision]

    def test_rejects_over_threshold(self, home):
        controller = AdmissionController(
            home, SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        home.deploy_pipeline(guest_config(0))
        config = guest_config(1, fps=15.0)
        decision = controller.decide(config, home.plan(config))
        assert decision.action == REJECTED
        assert decision.worst_utilization > decision.threshold
        assert "exceeds threshold" in decision.reason

    def test_stopped_pipelines_free_capacity(self, home):
        controller = AdmissionController(
            home, SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        occupant = home.deploy_pipeline(guest_config(0))
        config = guest_config(1, fps=15.0)
        assert controller.decide(config, home.plan(config)).action == REJECTED
        occupant.stop()
        assert controller.decide(config, home.plan(config)).action == ADMITTED

    def test_fails_open_when_unpriceable(self, home, monkeypatch):
        controller = AdmissionController(
            home, SLOConfig(admission_threshold=0.25))

        def broken(config, assignments):
            raise RuntimeError("no cost model today")

        monkeypatch.setattr(controller, "_pipeline_load", broken)
        config = fitness_pipeline_config(fps=10.0)
        decision = controller.decide(config, home.plan(config))
        assert decision.action == ADMITTED
        assert "admitted unpriced" in decision.reason


class TestFacadeAdmission:
    def test_check_mode_raises_with_the_decision(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        with pytest.raises(AdmissionError) as excinfo:
            home.deploy_pipeline(guest_config(1, fps=15.0))
        decision = excinfo.value.decision
        assert decision.action == REJECTED
        assert decision.worst_utilization > 0.25
        status = home.snapshot()["slo"]
        assert status["deploys_requested"] == 3
        assert status["deploys_rejected"] == 1
        assert status["deploys_deployed"] == 2

    def test_bypass_mode_skips_the_gate(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        pipeline = home.deploy_pipeline(guest_config(1, fps=15.0),
                                        admission="bypass")
        assert pipeline is not None
        assert home.snapshot()["slo"]["deploys_rejected"] == 0

    def test_conservation_invariant(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        with pytest.raises(AdmissionError):
            home.deploy_pipeline(guest_config(1, fps=15.0))
        home.deploy_pipeline(guest_config(2, fps=15.0), admission="bypass")
        home.run_for(1.0)
        status = home.snapshot()["slo"]
        assert status["deploys_requested"] == 3
        assert status["deploys_requested"] == (
            status["deploys_deployed"] + status["deploys_rejected"]
            + status["deploys_withdrawn"]
        )

    def test_a_failed_deploy_is_withdrawn(self, home):
        home.enable_audit()
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        config = fitness_pipeline_config(fps=10.0)
        config.modules[-1].include = "./NoSuchModule.js"
        with pytest.raises(ConfigError, match="no module registered"):
            home.deploy_pipeline(config, slo=SLO_T)
        status = home.snapshot()["slo"]
        assert (status["deploys_requested"],
                status["deploys_admitted"]) == (1, 1)
        assert (status["deploys_deployed"],
                status["deploys_withdrawn"]) == (0, 1)
        assert home.pipelines == []
        assert home.check_invariants() == []
        assert home.auditor.violations == []

    def test_invalid_admission_mode(self, home):
        home.enable_slo()
        for mode in ("maybe", "queue"):
            with pytest.raises(ConfigError):
                home.deploy_pipeline(fitness_pipeline_config(fps=10.0),
                                     admission=mode)

    def test_no_controller_means_no_gate(self, home):
        pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        assert pipeline is not None
