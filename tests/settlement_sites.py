"""Every way a queued event leaves the pipeline early, as one table.

All of them end in ``repro.runtime.settlement.settle_payload``; the
mutation and regression tests run the same scenario through each site so
one assertion proves every caller. A *site* takes a home and a
``plant(deployed)`` callback, deploys the diamond DAG on the phone, lets
``plant`` queue events into one module's mailbox, settles that mailbox its
own way, and returns the :class:`~repro.runtime.DeployedModule` it settled
(assert on its ``ctx.metrics`` and ``runtime.device.frame_store``).
"""

from repro.errors import ConfigError
from repro.frames.frame import VideoFrame
from repro.frames.payloads import frame_ids_in, release_refs
from repro.liveops import CanaryPolicy
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.events import DATA, ModuleEvent


@register_module("./SettleStage.js")
class Stage(Module):
    """Forwards every payload to its next modules."""

    #: slow enough that a burst of frames backs mailboxes up for a while
    event_overhead_s = 0.002

    def event_received(self, ctx, event):
        ctx.call_next(event.payload)


@register_module("./SettleSink.js")
class FanInSink(Module):
    """Stateless fan-in terminal: every arriving copy gives up its refs,
    the first one to arrive completes the frame."""

    event_overhead_s = 0.002

    def event_received(self, ctx, event):
        release_refs(event.payload, ctx._runtime.device.frame_store)
        for frame_id in frame_ids_in(event.payload):
            ctx.finish(frame_id)


class Raising(Module):
    """A broken version: raises on every event without touching its
    input, so the worker settles each one as ``handler_failed``."""

    event_overhead_s = 0.002

    def event_received(self, ctx, event):
        raise RuntimeError("handler bug")


class PlantOnInit(Module):
    """Runs ``plant`` on its own deployment during ``init`` — work queued
    before a later module's failure rolls the deploy back."""

    def __init__(self, plant):
        self.plant = plant
        self.deployed = None

    def init(self, ctx):
        self.deployed = ctx._runtime.deployed(ctx.module_name)
        self.plant(self.deployed)

    def event_received(self, ctx, event):
        pass


def diamond_config(failing=False):
    """One source fanning out to two producers that both feed one sink —
    the minimal fan-in DAG. ``failing=True`` builds a second, ``doomed.``-
    prefixed diamond (a device runtime keys modules by name) with one more
    module whose code does not exist, so its deploy rolls back after the
    other four are up."""
    prefix = "doomed." if failing else ""

    def stage(module, next_modules, include="./SettleStage.js"):
        return ModuleConfig(
            name=prefix + module, include=include, device="phone",
            next_modules=[prefix + name for name in next_modules],
        )

    modules = [
        stage("capture", ["producer_a", "producer_b"]),
        stage("producer_a", ["sink"]),
        stage("producer_b", ["sink"]),
        stage("sink", ["ghost"] if failing else [], "./SettleSink.js"),
    ]
    if failing:
        modules.append(stage("ghost", [], "./NoSuchModule.js"))
    return PipelineConfig(name=prefix + "diamond", modules=modules)


def plant_events(deployed, frame_id, copies):
    """Queue *copies* events for one admitted frame into *deployed*'s
    mailbox — one per upstream producer, each owning its own hold on the
    same stored frame (what a fan-out hands a fan-in consumer)."""
    ctx = deployed.ctx
    ref = ctx.store_frame(b"pixels")
    for _ in range(copies - 1):
        ctx.add_ref(ref)
    ctx.frame_entered(frame_id)
    for producer in range(copies):
        deployed.mailbox.put(ModuleEvent(
            kind=DATA,
            payload={"frame_id": frame_id, "ref": ref, "producer": producer},
        ))


def inject_frame(pipeline, frame_id):
    """Admit one frame at the diamond's source and fan it out over the
    real ``send_to_module`` path (a render-free frame: a cross-device hop
    encodes it and lands a fresh ref on the far side)."""
    ctx = pipeline.module("capture").ctx
    ref = ctx.store_frame(VideoFrame(frame_id, "test", ctx.now,
                                     width=64, height=48))
    ctx.frame_entered(frame_id)
    ctx.call_next({"frame_id": frame_id, "ref": ref})


def _deploy_and_plant(home, plant):
    pipeline = home.deploy_pipeline(diamond_config(), default_device="phone")
    plant(pipeline.module("sink"))
    return pipeline


def _migrate(home, plant):
    pipeline = _deploy_and_plant(home, plant)
    settled = pipeline.module("sink")
    home.migrate_module(pipeline, "sink", "desktop")
    return settled


def _crash(home, plant):
    pipeline = _deploy_and_plant(home, plant)
    home.crash_device("phone")
    return pipeline.module("sink")


def _stop(home, plant):
    pipeline = _deploy_and_plant(home, plant)
    pipeline.stop()
    return pipeline.module("sink")


def _rollback(home, plant):
    planter = PlantOnInit(plant)
    try:
        home.deploy_pipeline(diamond_config(failing=True),
                             default_device="phone",
                             module_instances={"doomed.sink": planter})
    except ConfigError:
        return planter.deployed
    raise AssertionError("the failing deploy did not fail")


def _shadow_retire(home, plant):
    pipeline = home.deploy_pipeline(diamond_config(), default_device="phone")
    upgrade = home.upgrade_module(pipeline, "sink",
                                  policy=CanaryPolicy(auto=False))
    plant(upgrade.shadow_deployed)
    # planted behind the tap's back: keep its books (which the auditor's
    # version-swap law reads) in step with the shadow collector
    upgrade.mirrored_frames = upgrade.shadow_metrics.counter("frames_entered")
    home.liveops.rollback(upgrade)
    return upgrade.shadow_deployed


SITES = {
    "migrate": _migrate,
    "crash": _crash,
    "rollback": _rollback,
    "stop": _stop,
    "shadow_retire": _shadow_retire,
}
