"""Migrate × arena interaction: draining a module whose queued frames hold
arena-backed pixel planes must retire the slots as MIGRATED, and any
post-migrate access through a kept handle is a typed StaleHandleError."""

import numpy as np
import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.errors import StaleHandleError
from repro.frames import MIGRATED, RELEASED, VideoFrame
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.events import DATA, ModuleEvent


@register_module("./ArenaProducer.js")
class Producer(Module):
    def event_received(self, ctx, event):
        pass


@register_module("./ArenaConsumer.js")
class Consumer(Module):
    def event_received(self, ctx, event):
        pass


def two_stage_config():
    return PipelineConfig(
        name="arenatest",
        modules=[
            ModuleConfig(name="producer", include="./ArenaProducer.js",
                         next_modules=["consumer"], device="phone",
                         endpoint="bind#tcp://*:6600"),
            ModuleConfig(name="consumer", include="./ArenaConsumer.js",
                         device="phone", endpoint="bind#tcp://*:6601"),
        ],
    )


def make_frame(frame_id):
    pixels = np.full((24, 32, 3), frame_id % 251, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=0.0,
                      width=32, height=24, pixels=pixels)


def queue_arena_frame(pipeline, module_name, frame_id):
    """Park an arena-backed frame in the module's mailbox and return the
    (ref, handle) pair the migration drain must retire."""
    ctx = pipeline.module(module_name).ctx
    ref = ctx.store_frame(make_frame(frame_id))
    ctx.frame_entered(frame_id)
    pipeline.module(module_name).mailbox.put(ModuleEvent(
        kind=DATA, payload={"frame_id": frame_id, "ref": ref},
    ))
    store = ctx._runtime.device.frame_store
    return ref, store.handle_of(ref)


class TestMigrateRetiresArenaSlots:
    def test_drained_planes_retire_as_migrated_not_released(self, monkeypatch):
        # REPRO_AUDIT=1 coverage: let the env gate audit this home too
        monkeypatch.setenv("REPRO_AUDIT", "1")
        home = VideoPipe.paper_testbed(seed=0)
        home.enable_data_plane()
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        ref, handle = queue_arena_frame(pipeline, "consumer", 801)
        assert handle is not None
        arena = home.device("phone").frame_store.arena

        home.migrate_module(pipeline, "consumer", "desktop")

        assert arena._retired_reason[handle.offset] == MIGRATED
        assert arena._retired_reason[handle.offset] != RELEASED
        assert pipeline.metrics.frames_in_flight == 0
        assert pipeline.metrics.counter("frames_dropped") == 1
        assert home.check_invariants() == []

    def test_post_migrate_access_raises_typed_stale(self, monkeypatch):
        """The kept handle is poison after the move — and the explicit
        auditor attributes the access. (This test *provokes* a stale
        access, so it opts out of the env auditor sweep.)"""
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home = VideoPipe.paper_testbed(seed=0)
        home.enable_data_plane()
        auditor = InvariantAuditor(home.kernel)
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        store = home.device("phone").frame_store
        store.observer = auditor.watch_store(store)
        store.arena.observer = auditor.watch_arena(store.arena)
        ref, handle = queue_arena_frame(pipeline, "consumer", 802)

        home.migrate_module(pipeline, "consumer", "desktop")

        with pytest.raises(StaleHandleError) as exc:
            store.frame_by_handle(handle)
        assert exc.value.reason == MIGRATED
        with pytest.raises(StaleHandleError) as exc:
            store.get(ref)
        assert exc.value.reason == MIGRATED
        assert any(v.invariant == "arena-stale-access"
                   and "migrated" in v.detail
                   for v in auditor.violations), auditor.report()
