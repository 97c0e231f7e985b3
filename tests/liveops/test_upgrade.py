"""Hot in-place upgrades: canary mirroring, promotion, rollback."""

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.apps.modules import PoseDetectionModule
from repro.core import VideoPipe
from repro.errors import ConfigError
from repro.liveops import PROMOTED, ROLLED_BACK, CanaryPolicy
from repro.liveops.upgrade import MIRRORING, _bump_version

from ..settlement_sites import diamond_config, inject_frame

MODULE = "pose_detector_module"


def fitness_home(seed=7, fps=8.0, duration_s=20.0, audit=True):
    home = VideoPipe.paper_testbed(seed=seed)
    if audit:
        home.enable_audit()
    home.enable_liveops()
    services = install_fitness_services(home)
    app = FitnessApp(home, services)
    pipeline = app.deploy(fitness_pipeline_config(fps=fps,
                                                  duration_s=duration_s))
    return home, pipeline


class TestVersionBump:
    def test_bump_semantics(self):
        assert _bump_version("v1") == "v2"
        assert _bump_version("v9") == "v10"
        assert _bump_version("2") == "3"
        assert _bump_version("release-3") == "release-4"
        assert _bump_version("stable") == "stable.next"


class TestAutoPromotion:
    def test_healthy_candidate_promotes_with_zero_frame_loss(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        up = home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=8.0),
        )
        assert up.state == MIRRORING
        assert up.from_version == "v1" and up.to_version == "v2"
        home.run_for(10.0)

        assert up.state == PROMOTED
        assert "within bound" in up.reason
        assert pipeline.wiring.version_of(MODULE) == "v2"
        assert pipeline.config.module(MODULE).version == "v2"
        assert pipeline.metrics.counter("upgrades_promoted") == 1
        assert pipeline.metrics.counter(f"module_version.{MODULE}.v2") == 1

        home.run(until=25.0)
        # zero frame loss: the live pipeline never dropped a frame, and
        # the shadow collector conserves every mirrored copy
        assert pipeline.metrics.counter("frames_dropped") == 0
        shadow = up.shadow_metrics
        assert shadow.counter("frames_entered") == (
            shadow.counter("frames_completed")
            + shadow.counter("frames_dropped")
        )
        assert up.mirrored_frames == shadow.counter("frames_entered")
        assert home.check_invariants() == [], home.auditor.report()

    def test_shadow_retired_after_promotion(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        up = home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=8.0),
        )
        home.run_for(10.0)
        assert up.state == PROMOTED
        runtime = pipeline.module(MODULE).runtime
        names = runtime.deployed_names()
        assert up.shadow_name not in names
        assert up.sink_name not in names
        assert MODULE in names
        assert pipeline.module(MODULE).mirror is None


class TestAutoRollback:
    def test_slow_candidate_rolls_back_leaving_v1_untouched(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        slow = PoseDetectionModule()
        slow.event_overhead_s = 0.5  # injected: v2 cannot keep up
        up = home.upgrade_module(
            pipeline, MODULE, module_instance=slow,
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=6.0),
        )
        home.run_for(10.0)

        assert up.state == ROLLED_BACK
        assert pipeline.wiring.version_of(MODULE) == "v1"
        assert pipeline.module_instance(MODULE) is not slow
        assert pipeline.metrics.counter("upgrades_rolled_back") == 1

        home.run(until=25.0)
        assert pipeline.metrics.counter("frames_dropped") == 0
        shadow = up.shadow_metrics
        assert shadow.counter("frames_entered") == (
            shadow.counter("frames_completed")
            + shadow.counter("frames_dropped")
        )
        assert home.check_invariants() == [], home.auditor.report()

    def test_erroring_candidate_rolls_back(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)

        class Exploding(PoseDetectionModule):
            def event_received(self, ctx, event):
                raise RuntimeError("v2 is broken")

        up = home.upgrade_module(
            pipeline, MODULE, module_instance=Exploding(),
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=6.0),
        )
        home.run_for(8.0)
        assert up.state == ROLLED_BACK
        assert "error rate" in up.reason
        assert pipeline.wiring.version_of(MODULE) == "v1"

    def test_timeout_fails_safe(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        # nothing can complete: demand far more evidence than the stream
        # will ever deliver before the deadline
        up = home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(min_mirrored=10_000,
                                decision_timeout_s=2.0),
        )
        home.run_for(5.0)
        assert up.state == ROLLED_BACK
        assert "failing safe" in up.reason


class TestMirroring:
    def test_fraction_mirrors_deterministic_half(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        up = home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(mirror_fraction=0.5, min_mirrored=3,
                                decision_timeout_s=8.0, auto=False),
        )
        primary = pipeline.module(MODULE)
        events_before = primary.events_processed
        home.run_for(4.0)
        arrived = primary.events_processed - events_before
        # the accumulator admits every second event, exactly (allow a
        # frame or two of enqueue-vs-processed skew at the window edges)
        assert up.mirrored_events == pytest.approx(arrived / 2, abs=2)
        home.liveops.rollback(up, reason="test done")

    def test_mirror_never_touches_live_credit_path(self):
        """Identical live throughput with and without a (manual, never
        resolved until the end) canary in flight."""
        home_a, pipeline_a = fitness_home(audit=False)
        home_a.run(until=25.0)
        completed_plain = pipeline_a.metrics.counter("frames_completed")

        home_b, pipeline_b = fitness_home(audit=False)
        home_b.run_for(3.0)
        up = home_b.upgrade_module(
            pipeline_b, MODULE, policy=CanaryPolicy(auto=False),
        )
        home_b.run_for(10.0)
        home_b.liveops.rollback(up, reason="test done")
        home_b.run(until=25.0)
        assert pipeline_b.metrics.counter("frames_completed") == completed_plain
        assert pipeline_b.metrics.counter("frames_dropped") == 0


    @pytest.mark.parametrize("verdict_after_s", [0.0, 1.0])
    def test_fanin_incumbent_admits_mirrored_frame_once(self, verdict_after_s):
        """The regression: a fan-in incumbent receives one event per
        upstream producer for the same frame, the tap admitted the frame
        on the shadow collector once per *event*, and the shadow settled
        it once — admitted (2) != completed + dropped (1). The verdict
        lands either with both copies still on their way to the candidate
        (teardown settles them) or after the candidate handled both."""
        home = VideoPipe.paper_testbed(seed=0)
        home.enable_audit()
        pipeline = home.deploy_pipeline(diamond_config(),
                                        default_device="phone")
        up = home.upgrade_module(pipeline, "sink",
                                 policy=CanaryPolicy(auto=False))
        inject_frame(pipeline, 900)
        while up.mirrored_events < 2:
            home.kernel.step()
        home.run_for(verdict_after_s)

        home.liveops.rollback(up, reason="test done")
        home.run_for(1.0)

        shadow = up.shadow_metrics
        assert up.mirrored_frames == shadow.counter("frames_entered") == 1
        assert shadow.counter("frames_completed") + \
            shadow.counter("frames_dropped") == 1
        assert pipeline.metrics.counter("frames_completed") == 1
        assert home.device("phone").frame_store.live_count == 0
        assert home.check_invariants() == [], home.auditor.report()


class TestManualControl:
    def test_manual_policy_waits_for_explicit_verdict(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        up = home.upgrade_module(pipeline, MODULE,
                                 policy=CanaryPolicy(auto=False))
        home.run_for(6.0)
        assert up.state == MIRRORING
        home.liveops.promote(up, reason="operator approved")
        assert up.state == PROMOTED
        assert pipeline.wiring.version_of(MODULE) == "v2"
        home.run(until=25.0)
        assert home.check_invariants() == [], home.auditor.report()

    def test_double_verdict_rejected(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        up = home.upgrade_module(pipeline, MODULE,
                                 policy=CanaryPolicy(auto=False))
        home.liveops.rollback(up)
        with pytest.raises(ConfigError):
            home.liveops.promote(up)
        with pytest.raises(ConfigError):
            home.liveops.rollback(up)


class TestRefusals:
    def test_source_module_refused(self):
        home, pipeline = fitness_home()
        home.run_for(1.0)
        with pytest.raises(ConfigError, match="source"):
            home.upgrade_module(pipeline, "video_streaming_module")

    def test_one_upgrade_per_module(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        home.upgrade_module(pipeline, MODULE,
                            policy=CanaryPolicy(auto=False))
        with pytest.raises(ConfigError, match="in flight"):
            home.upgrade_module(pipeline, MODULE)

    def test_stopped_pipeline_refused(self):
        home, pipeline = fitness_home()
        home.run_for(1.0)
        pipeline.stop()
        with pytest.raises(ConfigError, match="stopped"):
            home.upgrade_module(pipeline, MODULE)


class TestStatusAndAuditing:
    def test_liveops_status_counts(self):
        home, pipeline = fitness_home()
        home.run_for(3.0)
        home.upgrade_module(
            pipeline, MODULE,
            policy=CanaryPolicy(min_mirrored=5, decision_timeout_s=8.0),
        )
        home.run_for(10.0)
        status = home.snapshot()["liveops"]
        assert status["counts"] == {
            "mirroring": 0, "promoted": 1, "rolled_back": 0,
        }
        (entry,) = status["upgrades"]
        assert entry["module"] == MODULE
        assert entry["to_version"] == "v2"
        assert entry["mirrored_frames"] == entry["mirror_completed"] + \
            entry["mirror_dropped"]

    def test_status_requires_enable(self):
        """No live-ops manager, no ``liveops`` section."""
        home = VideoPipe.paper_testbed(seed=0)
        assert "liveops" not in home.snapshot()

    def test_canary_started_before_audit_is_audited(self, monkeypatch):
        """The regression: the shadow collector was handed to the auditor
        only inside ``_deploy_shadow``, so ``enable_audit()`` after an
        upgrade had started watched the live collector but never the
        shadow — mirror conservation went unchecked for that upgrade."""
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home = VideoPipe.paper_testbed(seed=0)
        pipeline = home.deploy_pipeline(diamond_config(),
                                        default_device="phone")
        up = home.upgrade_module(pipeline, "sink",
                                 policy=CanaryPolicy(auto=False))
        auditor = home.enable_audit()
        assert (auditor.watch_metrics(pipeline.metrics)
                in pipeline.wiring.observers)
        assert (auditor.watch_metrics(up.shadow_metrics)
                in up.shadow_wiring.observers)

        inject_frame(pipeline, 900)
        while up.mirrored_events < 2:
            home.kernel.step()
        home.liveops.rollback(up, reason="test done")
        home.run_for(1.0)
        assert up.shadow_metrics.counter("frames_entered") == 1
        assert home.check_invariants() == [], auditor.report()

    def test_unretired_shadow_trips_version_swap_law(self, monkeypatch):
        """Mutation: promotion that forgets to retire the canary. The
        auditor's version-swap law names the ghost deployment."""
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home, pipeline = fitness_home(audit=False)
        auditor = home.enable_audit()
        home.run_for(3.0)
        up = home.upgrade_module(pipeline, MODULE,
                                 policy=CanaryPolicy(auto=False))
        home.run_for(5.0)
        monkeypatch.setattr(home.liveops, "_retire_shadow", lambda u: None)
        up.primary_deployed.mirror = None  # stop mirroring by hand
        home.liveops.promote(up)
        violations = [v for v in auditor.violations
                      if v.invariant == "liveops-version-swap"]
        assert violations, auditor.report()
        assert up.shadow_name in violations[0].detail

    def test_vanished_upgrade_trips_conservation_law(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home, pipeline = fitness_home(audit=False)
        auditor = home.enable_audit()
        home.run_for(3.0)
        up = home.upgrade_module(pipeline, MODULE,
                                 policy=CanaryPolicy(auto=False))
        # mutation: the upgrade evaporates without promote/rollback
        home.liveops._active.pop((pipeline.name, MODULE))
        up.primary_deployed.mirror = None
        auditor.check_now()
        assert any(v.invariant == "liveops-conservation"
                   for v in auditor.violations), auditor.report()
