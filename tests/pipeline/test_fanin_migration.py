"""Regression tests: draining a fan-in module's mailbox on migrate.

A fan-in module (several upstream producers, one consumer — the scene
fusion DAG's shape) can hold *several* queued events for the same admitted
frame, one per producer, each event copy owning its own frame reference.
The old drain deduplicated per drain *site*: within one mailbox a frame
dropped once (right), but a frame fanned out across two modules — or
settled earlier through a surviving sibling branch — was dropped again at
the next site, over-counting ``frames_dropped`` and mis-settling frames a
sibling had already completed. The fix guards every drain's drop
accounting on ``MetricsCollector.frame_in_flight``: each event still
releases its own refs, but a frame leaves the pipeline exactly once.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.events import DATA, ModuleEvent

from ..settlement_sites import SITES, plant_events


@register_module("./FanProducer.js")
class FanProducer(Module):
    def event_received(self, ctx, event):
        pass


@register_module("./FanSink.js")
class FanSink(Module):
    def event_received(self, ctx, event):
        pass


def fanin_config():
    """A diamond: one source fanning out to two producers that both feed
    one sink — the minimal fan-in DAG."""
    return PipelineConfig(
        name="fanin",
        modules=[
            ModuleConfig(name="capture", include="./FanProducer.js",
                         next_modules=["producer_a", "producer_b"],
                         device="phone", endpoint="bind#tcp://*:6599"),
            ModuleConfig(name="producer_a", include="./FanProducer.js",
                         next_modules=["sink"], device="phone",
                         endpoint="bind#tcp://*:6600"),
            ModuleConfig(name="producer_b", include="./FanProducer.js",
                         next_modules=["sink"], device="phone",
                         endpoint="bind#tcp://*:6601"),
            ModuleConfig(name="sink", include="./FanSink.js", device="phone",
                         endpoint="bind#tcp://*:6602"),
        ],
    )


def fanout_config():
    """One producer feeding two consumers — the same frame in two
    mailboxes on one device."""
    return PipelineConfig(
        name="fanout",
        modules=[
            ModuleConfig(name="producer", include="./FanProducer.js",
                         next_modules=["left", "right"], device="phone",
                         endpoint="bind#tcp://*:6610"),
            ModuleConfig(name="left", include="./FanSink.js", device="phone",
                         endpoint="bind#tcp://*:6611"),
            ModuleConfig(name="right", include="./FanSink.js", device="phone",
                         endpoint="bind#tcp://*:6612"),
        ],
    )


@pytest.fixture
def home():
    return VideoPipe.paper_testbed(seed=0)


class TestFanInMigrateDrain:
    def test_two_events_one_frame_drop_once(self, home):
        """The regression: a fan-in mailbox holds two events for the same
        frame. The migrate drain must release both events' refs (the store
        empties) but record ONE drop — pre-fix the per-site dedup happened
        to get this case right while double-dropping across sites, and a
        naive per-event drop here counts two."""
        home.enable_audit()
        pipeline = home.deploy_pipeline(fanin_config(),
                                        default_device="phone")
        plant_events(pipeline.module("sink"), 801, copies=2)
        assert pipeline.metrics.frames_in_flight == 1
        # one stored object held twice — only BOTH events' releases free it
        assert home.device("phone").frame_store.live_count == 1

        home.migrate_module(pipeline, "sink", "desktop")

        assert pipeline.metrics.counter("frames_dropped") == 1
        assert pipeline.metrics.frames_in_flight == 0
        assert home.device("phone").frame_store.live_count == 0
        assert home.check_invariants() == [], home.auditor.report()

    def test_fanout_across_modules_drops_once(self, home):
        """The same admitted frame queued in two sibling consumers'
        mailboxes: migrating both must settle the frame exactly once —
        pre-fix each module's drain kept its own seen-set and dropped it
        twice."""
        home.enable_audit()
        pipeline = home.deploy_pipeline(fanout_config(),
                                        default_device="phone")
        deployed_left = pipeline.module("left")
        deployed_right = pipeline.module("right")
        ctx = deployed_left.ctx
        ref = ctx.store_frame(b"pixels")
        ctx.add_ref(ref)
        ctx.frame_entered(802)
        for deployed in (deployed_left, deployed_right):
            deployed.mailbox.put(ModuleEvent(
                kind=DATA, payload={"frame_id": 802, "ref": ref},
            ))

        home.migrate_module(pipeline, "left", "desktop")
        home.migrate_module(pipeline, "right", "desktop")

        assert pipeline.metrics.counter("frames_dropped") == 1
        assert pipeline.metrics.frames_in_flight == 0
        assert home.device("phone").frame_store.live_count == 0
        assert home.check_invariants() == [], home.auditor.report()

    def test_sibling_completion_wins_over_drain(self, home):
        """A frame already completed through a surviving sibling branch
        must NOT be re-settled as dropped when a stale copy drains — first
        settlement wins."""
        home.enable_audit()
        pipeline = home.deploy_pipeline(fanout_config(),
                                        default_device="phone")
        deployed = pipeline.module("left")
        ctx = deployed.ctx
        ref = ctx.store_frame(b"pixels")
        ctx.frame_entered(803)
        deployed.mailbox.put(ModuleEvent(
            kind=DATA, payload={"frame_id": 803, "ref": ref},
        ))
        # the sibling ("right") finishes the frame first
        pipeline.module("right").ctx.finish(803)

        home.migrate_module(pipeline, "left", "desktop")

        assert pipeline.metrics.counter("frames_completed") == 1
        assert pipeline.metrics.counter("frames_dropped") == 0
        assert pipeline.metrics.frames_in_flight == 0
        assert home.check_invariants() == [], home.auditor.report()


class TestEverySiteSettlesOnce:
    @pytest.mark.parametrize("site", SITES)
    def test_two_copies_drop_once_under_the_sites_reason(self, home, site):
        """The fan-in drain law holds wherever the mailbox is settled, and
        the drop is counted under the reason that site passes."""
        home.enable_audit()
        settled = SITES[site](
            home, lambda deployed: plant_events(deployed, 806, copies=2)
        )
        metrics = settled.ctx.metrics
        assert metrics.counter("frames_dropped") == 1
        assert metrics.counter(f"frames_dropped.{site}") == 1
        assert metrics.frames_in_flight == 0
        assert settled.runtime.device.frame_store.live_count == 0
        assert home.check_invariants() == [], home.auditor.report()


class TestPipelineStopSettles:
    @pytest.mark.parametrize("warmup_s", [0.0, 0.5])
    def test_stop_settles_queued_fanin_events(self, home, warmup_s):
        """The regression: ``Pipeline.stop`` undeployed every module but
        left their mailboxes full. With the workers parked on ``get``
        (0.5 s) one of the two fan-in events was settled by the inactive
        worker and the other hold leaked; stopped before the workers'
        first resume (0 s) nothing was released and the frame stayed in
        flight forever."""
        home.enable_audit()
        pipeline = home.deploy_pipeline(fanin_config(),
                                        default_device="phone")
        if warmup_s:
            home.run(until=warmup_s)
        plant_events(pipeline.module("sink"), 805, copies=2)

        pipeline.stop()
        home.run(until=warmup_s + 1.0)

        metrics = pipeline.metrics
        assert metrics.counter("frames_dropped") == 1
        assert metrics.frames_in_flight == 0
        assert home.device("phone").frame_store.live_count == 0
        assert home.check_invariants() == [], home.auditor.report()
        assert (metrics.counter("frames_dropped.stop")
                + metrics.counter("frames_dropped.dead_letter")) == 1


class TestFanInDrainMutation:
    def test_release_once_per_frame_leaks_refs(self, monkeypatch):
        """Re-introduce the bug the other way round: treat the drain as
        per-*frame* instead of per-*event*, releasing refs only for the
        first event that mentions a frame. The second fan-in event's hold
        leaks, and frame-ref conservation flags it at quiesce — at every
        settlement site, because they all share the one primitive."""
        import repro.runtime.settlement as settlement_mod

        # this test *plants* a violation; drop REPRO_AUDIT *before*
        # building the home (the env auditor attaches at construction) and
        # keep the auditor explicit so the sweep doesn't fail for finding
        # exactly that
        monkeypatch.delenv("REPRO_AUDIT", raising=False)

        real_release_refs = settlement_mod.release_refs
        seen_frames: set[int] = set()

        def release_once_per_frame(payload, store, reason=None):
            frame_ids = settlement_mod.frame_ids_in(payload)
            if frame_ids and all(fid in seen_frames for fid in frame_ids):
                return 0  # the buggy dedup: this event's holds never drop
            seen_frames.update(frame_ids)
            if reason is None:
                return real_release_refs(payload, store)
            return real_release_refs(payload, store, reason=reason)

        monkeypatch.setattr(settlement_mod, "release_refs",
                            release_once_per_frame)
        for site, settle_via in SITES.items():
            seen_frames.clear()
            home = VideoPipe.paper_testbed(seed=0)
            auditor = InvariantAuditor(home.kernel)

            def plant(deployed):
                store = deployed.runtime.device.frame_store
                store.observer = auditor.watch_store(store)
                auditor.watch_metrics(deployed.ctx.metrics)
                plant_events(deployed, 804, copies=2)

            settled = settle_via(home, plant)

            store = settled.runtime.device.frame_store
            assert store.live_count == 1, site  # the leaked hold
            violations = auditor.check_quiesce()
            assert any(v.invariant == "frame-ref-conservation"
                       for v in violations), (site, auditor.report())
