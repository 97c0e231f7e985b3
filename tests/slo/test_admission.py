"""Admission control: cost-model gating, queueing, and conservation."""

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
from repro.errors import AdmissionError
from repro.slo import SLO, SLOConfig
from repro.slo.admission import AdmissionController, pipeline_fps
from repro.slo.spec import ADMITTED, QUEUED, REJECTED

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

    def test_on_reject_queued(self, home):
        controller = AdmissionController(
            home, SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        home.deploy_pipeline(guest_config(0))
        config = guest_config(1, fps=15.0)
        decision = controller.decide(config, home.plan(config),
                                     on_reject=QUEUED)
        assert decision.action == QUEUED

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
        status = home.slo_status()["admission"]
        assert status["requested"] == 3
        assert status["rejected"] == 1
        assert status["deployed"] == 2

    def test_bypass_mode_skips_the_gate(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        pipeline = home.deploy_pipeline(guest_config(1, fps=15.0),
                                        admission="bypass")
        assert pipeline is not None
        assert home.slo_status()["admission"]["rejected"] == 0

    def test_queue_mode_parks_and_drains(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        occupant = home.deploy_pipeline(guest_config(0))
        parked = home.deploy_pipeline(guest_config(1, fps=15.0),
                                      admission="queue")
        assert parked is None
        assert [q.name for q in home.slo.queued] == ["guest1"]
        # capacity has not returned: the head stays parked across ticks
        home.run_for(1.5)
        assert [q.name for q in home.slo.queued] == ["guest1"]
        # the occupant leaves; the next tick re-prices and deploys the head
        occupant.stop()
        home.run_for(1.0)
        assert home.slo.queued == []
        names = [p.config.name for p in home.pipelines if not p.stopped]
        assert "guest1" in names
        status = home.slo_status()["admission"]
        assert status["requested"] == 3
        assert status["deployed"] == 3

    def test_withdraw_a_parked_deploy(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        home.deploy_pipeline(guest_config(1, fps=15.0), admission="queue")
        assert home.slo.withdraw("guest1")
        assert not home.slo.withdraw("guest1")
        status = home.slo_status()["admission"]
        assert status["withdrawn"] == 1
        assert status["queued_now"] == []

    def test_conservation_invariant(self, home):
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.deploy_pipeline(guest_config(0))
        with pytest.raises(AdmissionError):
            home.deploy_pipeline(guest_config(1, fps=15.0))
        home.deploy_pipeline(guest_config(2, fps=15.0), admission="queue")
        home.run_for(1.0)
        status = home.slo_status()["admission"]
        assert status["requested"] == (
            status["deployed"] + status["rejected"] + status["withdrawn"]
            + len(status["queued_now"])
        )

    def test_invalid_admission_mode(self, home):
        from repro.errors import ConfigError

        home.enable_slo()
        with pytest.raises(ConfigError):
            home.deploy_pipeline(fitness_pipeline_config(fps=10.0),
                                 admission="maybe")

    def test_no_controller_means_no_gate(self, home):
        pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        assert pipeline is not None
