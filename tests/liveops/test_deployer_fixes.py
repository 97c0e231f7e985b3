"""Regression tests for the three deployer bugs this PR fixes.

1. ``migrate``/``swap_module`` rebuilt service stubs with the *default*
   ``prefer_local=True``, silently flipping a pure service-oriented
   pipeline (deployed with ``prefer_local_services=False``) to local
   dispatch after a move.
2. The migrate drain accounted only *top-level* ``frame_id`` keys, so a
   queued batched/enveloped payload leaked its nested frames'
   ``frames_in_flight`` slots forever.
3. A mid-deploy failure's rollback unbound already-deployed modules but
   never released their queued events' frame refs nor accounted the
   carried frames as dropped.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.errors import ConfigError
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.events import DATA, ModuleEvent
from repro.services import FunctionService

from ..settlement_sites import SITES


@register_module("./FixProducer.js")
class Producer(Module):
    def event_received(self, ctx, event):
        pass


@register_module("./FixConsumer.js")
class Consumer(Module):
    def event_received(self, ctx, event):
        def flow():
            yield ctx.call_service("echo", event.payload)
        return flow()


def two_stage_config():
    return PipelineConfig(
        name="fixtest",
        modules=[
            ModuleConfig(name="producer", include="./FixProducer.js",
                         next_modules=["consumer"], device="phone",
                         endpoint="bind#tcp://*:6400"),
            ModuleConfig(name="consumer", include="./FixConsumer.js",
                         services=["echo"], device="phone",
                         endpoint="bind#tcp://*:6401"),
        ],
    )


@pytest.fixture
def home():
    home = VideoPipe.paper_testbed(seed=0)
    home.deploy_service(FunctionService("echo", lambda p, c: p,
                                        default_port=7300), "desktop")
    return home


class TestPreferLocalSurvivesMigration:
    def test_pure_soa_pipeline_stays_remote_after_migrate(self, home):
        """The regression: deployed with ``prefer_local_services=False``,
        the consumer's echo stub is remote; migrating it onto the very
        device that hosts echo must NOT flip the stub local — pre-fix,
        migrate rebuilt stubs with the default policy and did."""
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone",
                                        prefer_local_services=False)
        assert pipeline.prefer_local_services is False
        assert not pipeline.module("consumer").ctx.service_is_local("echo")

        home.migrate_module(pipeline, "consumer", "desktop")

        assert not pipeline.module("consumer").ctx.service_is_local("echo")

    def test_default_pipeline_still_flips_local(self, home):
        """The inverse stays true: a local-preferred pipeline's stub goes
        local when the module lands beside the service."""
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        assert not pipeline.module("consumer").ctx.service_is_local("echo")
        home.migrate_module(pipeline, "consumer", "desktop")
        assert pipeline.module("consumer").ctx.service_is_local("echo")


def _queue_nested_event(deployed, frame_ids):
    """Plant a DATA event whose frame ids sit below the top level, the
    batched/enveloped payload shape the old flat drain missed."""
    ctx = deployed.ctx
    payload = {"batch": [
        {"frame_id": fid, "ref": ctx.store_frame(b"pixels")}
        for fid in frame_ids
    ]}
    for fid in frame_ids:
        ctx.frame_entered(fid)
    deployed.mailbox.put(ModuleEvent(kind=DATA, payload=payload))
    return payload


class TestMigrateDrainWalksNestedPayloads:
    def test_nested_frames_accounted_on_migrate(self, home):
        home.enable_audit()
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        _queue_nested_event(pipeline.module("consumer"), [501, 502, 503])
        assert pipeline.metrics.frames_in_flight == 3

        home.migrate_module(pipeline, "consumer", "desktop")

        # every nested frame settled: refs released, in-flight pruned
        assert pipeline.metrics.frames_in_flight == 0
        assert pipeline.metrics.counter("frames_dropped") == 3
        assert len(home.device("phone").frame_store) == 0
        assert home.check_invariants() == [], home.auditor.report()

    def test_flat_drain_mutation_trips_auditor(self, monkeypatch):
        """Re-introduce the bug: drain only top-level ``frame_id`` keys.
        The metrics-conservation law flags the leak immediately — at every
        settlement site, because they all share the one primitive."""
        import repro.runtime.settlement as settlement_mod

        # this test *plants* a violation; keep the auditor explicit so the
        # REPRO_AUDIT sweep doesn't fail for finding exactly that
        monkeypatch.delenv("REPRO_AUDIT", raising=False)

        def flat_only(payload):
            if isinstance(payload, dict) and isinstance(
                payload.get("frame_id"), int
            ):
                return [payload["frame_id"]]
            return []

        monkeypatch.setattr(settlement_mod, "frame_ids_in", flat_only)
        for site, settle_via in SITES.items():
            home = VideoPipe.paper_testbed(seed=0)
            auditor = InvariantAuditor(home.kernel)

            def plant(deployed):
                auditor.watch_metrics(deployed.ctx.metrics)
                _queue_nested_event(deployed, [601, 602])

            settled = settle_via(home, plant)

            assert settled.ctx.metrics.frames_in_flight == 2, site  # the leak
            violations = auditor.check_quiesce()
            assert any(v.invariant == "metrics-conservation"
                       for v in violations), (site, auditor.report())


@register_module("./FixEagerSource.js")
class EagerSource(Module):
    """Admits a frame and queues it during ``init`` — so a failure later
    in the same deploy leaves real work in its mailbox for rollback."""

    def init(self, ctx):
        ref = ctx.store_frame(b"frame-pixels")
        ctx.frame_entered(701)
        deployed = ctx._runtime.deployed(ctx.module_name)
        deployed.mailbox.put(ModuleEvent(
            kind=DATA, payload={"frame_id": 701, "ref": ref},
        ))

    def event_received(self, ctx, event):
        pass


class TestDeployRollbackAccounting:
    def _failing_config(self):
        return PipelineConfig(
            name="rollbacktest",
            modules=[
                ModuleConfig(name="eager", include="./FixEagerSource.js",
                             next_modules=["ghost"], device="phone",
                             endpoint="bind#tcp://*:6500"),
                ModuleConfig(name="ghost", include="./NoSuchModule.js",
                             device="phone", endpoint="bind#tcp://*:6501"),
            ],
        )

    def test_rollback_releases_and_accounts_queued_frames(self, home):
        home.enable_audit()
        with pytest.raises(ConfigError):
            home.deploy_pipeline(self._failing_config(),
                                 default_device="phone")
        # crash-drain semantics: ref released, frame accounted as dropped
        assert len(home.device("phone").frame_store) == 0
        assert home.device("phone").runtime.deployed_names() == []
        assert home.check_invariants() == [], home.auditor.report()
