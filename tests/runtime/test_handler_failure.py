"""A raising DATA handler's frame ends in one place: the module worker.

The worker settles the event's payload as ``handler_failed`` (releasing the
refs the handler still owns) and counts ``module_errors`` once. A frame
ends once and returns one credit: a sibling branch that finishes the same
frame later records nothing, and a settled frame's credit goes back to the
source when the frame's last live copy ends — never while a sibling copy
still runs (``docs/AUDIT.md`` §Settlement).
"""

import dataclasses
from collections import Counter

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
    install_scene_services,
    multi_camera_pipeline_config,
    scene_pipeline_config,
    train_activity_recognizer,
)
from repro.apps.scenefusion import SceneRigModule, ScenePoseEstimatorService
from repro.audit.determinism import record_scenario
from repro.core import VideoPipe
from repro.devices import DeviceSpec
from repro.errors import ServiceError
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.settlement import CRASH, DEAD_LETTER, HANDLER_FAILED, MIGRATE
from repro.services import FunctionService, ObjectTrackingService
from repro.sim import Signal
from repro.trace.span import CAT_FRAME

FAILED = f"frames_dropped.{HANDLER_FAILED}"


@register_module("./HandlerFailureFork.js")
class Fork(Module):
    def event_received(self, ctx, event):
        ctx.call_next(event.payload)


@register_module("./HandlerFailureRaiser.js")
class Raiser(Module):
    """Raises on every event without touching its input — after
    *delay_s*, so that a sibling branch can finish the frame first."""

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s

    def event_received(self, ctx, event):
        def flow():
            yield self.delay_s
            raise RuntimeError("handler bug")

        return flow()


@register_module("./HandlerFailureOdd.js")
class OddRaiser(Module):
    """A slow stage that raises on odd frames and forwards even ones."""

    event_overhead_s = 0.05

    def event_received(self, ctx, event):
        if event.payload["frame_id"] % 2:
            raise RuntimeError("odd frame")
        ctx.call_next(event.payload)


@register_module("./HandlerFailureSink.js")
class Sink(Module):
    def event_received(self, ctx, event):
        ctx.release(event.payload["frame"])
        ctx.finish(event.payload["frame_id"])


@register_module("./HandlerFailureReleaseThenRaise.js")
class ReleaseThenRaise(Module):
    """Breaks the ownership rule: frees its input, then raises."""

    def event_received(self, ctx, event):
        ctx.release(event.payload["frame"])
        raise RuntimeError("released, then failed")


@register_module("./HandlerFailureHold.js")
class Hold(Module):
    """Holds each frame for *delay_s*, then frees it and — when it is the
    sink — finishes it. Records when it let go of each frame."""

    def __init__(self, delay_s, sink=False):
        self.delay_s = delay_s
        self.sink = sink
        self.done_at = {}

    def event_received(self, ctx, event):
        def flow():
            yield self.delay_s
            ctx.release(event.payload["frame"])
            if self.sink:
                ctx.finish(event.payload["frame_id"])
            self.done_at[event.payload["frame_id"]] = ctx.now

        return flow()


def camera(next_modules, **params):
    return ModuleConfig(
        name="camera", include="./VideoStreamingModule.js", device="phone",
        next_modules=next_modules,
        params={"fps": 10.0, "duration_s": 1.0, **params},
    )


def stage(name, include, next_modules=(), device="phone", **params):
    return ModuleConfig(name=name, include=include, device=device,
                        next_modules=list(next_modules), params=params)


def record_admissions(pipeline):
    """Spy on *pipeline*'s collector: frame id -> admission time."""
    admitted = {}
    enter = pipeline.metrics.frame_entered

    def frame_entered(frame_id, now, captured=None):
        admitted[frame_id] = now
        enter(frame_id, now, captured)

    pipeline.metrics.frame_entered = frame_entered
    return admitted


def next_admission(admitted, frame_id):
    """When the source admitted its first frame after *frame_id*."""
    return min(t for f, t in admitted.items() if f > frame_id)


def assert_every_frame_ended(home, pipeline):
    count = pipeline.metrics.counter
    assert pipeline.metrics.frames_in_flight == 0
    assert count("frames_entered") == count("frames_completed") + (
        count("frames_dropped") - count("frames_dropped.source_busy"))
    for device in home.devices.values():
        assert device.frame_store.live_count == 0, device.name
    assert home.check_invariants() == [], home.auditor.report()


def _broken_detector(payload, ctx):
    raise ServiceError("detector down")


def test_a_failing_detector_drops_every_frame_as_handler_failed():
    """With its detector down, the object-tracking home completes nothing:
    each admitted frame is dropped as ``handler_failed``, counted once in
    ``module_errors``, and its credit still comes back."""
    home = VideoPipe.paper_testbed(seed=51)
    home.enable_audit()
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    home.deploy_service(FunctionService("object_detector", _broken_detector,
                                        reference_cost_s=0.02), "desktop")
    home.deploy_service(ObjectTrackingService(), "desktop")
    pipeline = home.deploy_pipeline(
        scene_pipeline_config(fps=10.0, duration_s=2.0))
    home.run()
    count = pipeline.metrics.counter
    entered = count("frames_entered")
    assert entered >= 10  # the source kept emitting
    assert count("frames_completed") == 0
    assert count(FAILED) == entered
    errors = pipeline.module("object_detection_module").errors
    assert count("module_errors") == len(errors) == entered
    assert count("ready_signals") == entered
    assert_every_frame_ended(home, pipeline)


@pytest.mark.parametrize("delay_s", [0.0, 0.05], ids=["race", "sink-first"])
def test_a_raising_branch_ends_a_fanned_out_frame_once(delay_s):
    """A non-sink branch raises while the sink branch finishes. Without a
    delay the loopback jitter decides which branch ends each frame; with
    one, the sink always does. Either way the frame ends once."""
    home = VideoPipe.paper_testbed(seed=3)
    home.enable_audit()
    pipeline = home.deploy_pipeline(PipelineConfig(
        name="fork", source="camera",
        modules=[
            camera(["fork"]),
            stage("fork", "./HandlerFailureFork.js", ["raiser", "sink"]),
            stage("raiser", "./HandlerFailureRaiser.js", delay_s=delay_s),
            stage("sink", "./HandlerFailureSink.js"),
        ],
    ))
    home.run()
    count = pipeline.metrics.counter
    entered = count("frames_entered")
    assert entered >= 5
    assert count("module_errors") == entered
    assert count("frames_completed") + count(FAILED) == entered
    assert count(FAILED) == 0 if delay_s else count(FAILED) > 0
    # one credit per frame, whichever branch ended it
    assert count("ready_signals") == entered
    assert_every_frame_ended(home, pipeline)


class BlindFirstCamera(ScenePoseEstimatorService):
    """Fails every frame of the rig's first camera: with two cameras a
    tick's frame ids are ``2 * tick + 1`` and ``2 * tick + 2``."""

    def handle(self, payload, ctx):
        if payload["frame"].frame_id % 2:
            raise ServiceError("camera 0 is blind")
        return super().handle(payload, ctx)


def test_a_raising_fan_in_branch_still_returns_the_rig_its_credit():
    home = VideoPipe.paper_testbed(seed=5)
    home.enable_audit()
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    home.deploy_service(BlindFirstCamera(), "desktop")
    pipeline = home.deploy_pipeline(multi_camera_pipeline_config(
        cameras=2, fps=8.0, duration_s=2.0))
    home.run()
    rig = pipeline.module_instance("scene_rig_module")
    count = pipeline.metrics.counter
    # one credit per camera frame: no watchdog, and tick after tick
    assert rig.emitted_ticks >= 8
    assert count(FAILED) == count("frames_completed") == rig.emitted_ticks
    assert count("ready_signals") == 2 * rig.emitted_ticks
    assert_every_frame_ended(home, pipeline)


def test_ready_signals_queued_at_a_crashed_rig_still_return_their_credits():
    """A slow rig takes its ready signals one at a time, so the fusion
    sink's signals queue in its mailbox. Its device crashes with one
    queued: the drained signal hands its credit to the rig directly, and
    the rig's ticks resume once the device is back."""
    home = VideoPipe.paper_testbed(seed=5)
    home.enable_audit()
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    install_scene_services(home, "desktop")
    slow_rig = SceneRigModule(fps=8.0, duration_s=4.0, cameras=3)
    slow_rig.event_overhead_s = 0.05
    pipeline = home.deploy_pipeline(
        multi_camera_pipeline_config(cameras=3, fps=8.0, duration_s=4.0),
        module_instances={"scene_rig_module": slow_rig})
    mailbox = pipeline.module("scene_rig_module").mailbox
    while not len(mailbox):
        assert home.now < 1.0, "no ready signal ever queued at the rig"
        home.run_for(0.0002)
    home.crash_device("camera")
    home.run_for(0.5)
    home.restart_device("camera")
    ticks = slow_rig.emitted_ticks
    home.run()
    assert slow_rig.emitted_ticks >= ticks + 5
    count = pipeline.metrics.counter
    assert count("ready_signals") == count("frames_entered")
    assert_every_frame_ended(home, pipeline)


def test_releasing_then_raising_trips_frame_ref_conservation(monkeypatch):
    """The mutation: a handler that frees its input and then raises. The
    settlement finds the ref already released, counts the breach, records
    a frame-ref-conservation violation and skips the ref, so the worker
    lives on and the source keeps its credit."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    home = VideoPipe.paper_testbed(seed=3)
    auditor = home.enable_audit()
    pipeline = home.deploy_pipeline(PipelineConfig(
        name="mutant", source="camera",
        modules=[
            camera(["mutant"]),
            stage("mutant", "./HandlerFailureReleaseThenRaise.js"),
        ],
    ))
    home.run()
    count = pipeline.metrics.counter
    entered = count("frames_entered")
    mutant = pipeline.module("mutant")
    assert entered >= 5  # no watchdog: every credit came back
    assert mutant.events_processed == len(mutant.errors) == entered
    assert count("ownership_breaches") == count(FAILED) == entered
    assert pipeline.metrics.frames_in_flight == 0
    assert home.devices["phone"].frame_store.live_count == 0
    breaches = [v for v in auditor.violations
                if v.invariant == "frame-ref-conservation"]
    assert len(breaches) == entered, auditor.report()
    assert "mutant raised after releasing" in breaches[0].detail


def test_a_migrated_branchs_queued_copy_leaves_the_sink_its_credit():
    """Fan-out: the side branch is busy, so the next frame's copy waits in
    its mailbox; migrating it drops that frame while the sink still holds
    its copy. The sink's ``finish`` records nothing, and the credit the
    migration left owed comes back when the sink lets go of its copy — not
    before — so the source keeps emitting, one frame at a time."""
    home = VideoPipe.paper_testbed(seed=3)
    home.enable_audit()
    pipeline = home.deploy_pipeline(PipelineConfig(
        name="fork", source="camera",
        modules=[
            camera(["fork"], duration_s=3.0),
            stage("fork", "./HandlerFailureFork.js", ["side", "sink"]),
            stage("side", "./HandlerFailureHold.js", delay_s=1.0),
            stage("sink", "./HandlerFailureHold.js", delay_s=0.2, sink=True),
        ],
    ))
    admitted = record_admissions(pipeline)
    side = pipeline.module("side")
    while not (side.mailbox_depth and pipeline.metrics.frames_in_flight):
        assert home.now < 2.0, "the side branch never queued a live frame"
        home.run_for(0.01)
    home.migrate_module(pipeline, "side", "desktop")
    at_migration = pipeline.metrics.counter("frames_entered")
    home.run()
    count = pipeline.metrics.counter
    entered = count("frames_entered")
    assert count(f"frames_dropped.{MIGRATE}") == 1
    assert entered >= at_migration + 5
    assert count("frames_completed") == entered - 1
    assert count("ready_signals") == entered
    assert_every_frame_ended(home, pipeline)
    # the side branch never handled the frame the migration dropped; the
    # source admitted its next frame only once the sink's copy ended
    [dropped] = set(admitted) - set(pipeline.module_instance("side").done_at)
    sink_done = pipeline.module_instance("sink").done_at[dropped]
    assert next_admission(admitted, dropped) >= sink_done


def test_a_crashed_rep_counter_still_leaves_the_display_its_credit():
    """The fitness DAG fans each frame out to the rep counter and the
    display. With the rep counter's device down, every copy sent to it
    dead-letters and ends its frame; the credit each dead letter left owed
    comes back once the display is done with its copy — never sooner — so
    the stream runs to its end."""
    home = VideoPipe.paper_testbed(seed=9)
    home.enable_audit()
    home.add_device(DeviceSpec(name="laptop", kind="laptop"))
    services = install_fitness_services(
        home, recognizer=train_activity_recognizer(seed=0))
    config = fitness_pipeline_config(fps=10.0, duration_s=3.0)
    config.modules[:] = [
        dataclasses.replace(module, device="laptop")
        if module.name == "rep_counter_module" else module
        for module in config.modules
    ]
    pipeline = FitnessApp(home, services).deploy(config)
    admitted = record_admissions(pipeline)
    display = pipeline.module("display_module").ctx
    finished_at = {}
    finish = display.finish

    def spy_finish(frame_id):
        finished_at[frame_id] = display.now
        return finish(frame_id)

    display.finish = spy_finish
    home.run(until=1.0)
    completed = pipeline.metrics.counter("frames_completed")
    crashed_after = max(admitted)
    home.crash_device("laptop")
    home.run()
    count = pipeline.metrics.counter
    entered = count("frames_entered")
    lost = count(f"frames_dropped.{DEAD_LETTER}")
    assert lost >= 15  # one per frame after the crash: the source kept going
    assert count("frames_completed") == completed
    assert count("ready_signals") == entered == completed + lost
    assert_every_frame_ended(home, pipeline)
    for frame_id in sorted(f for f in admitted if f > crashed_after)[:-1]:
        assert next_admission(admitted, frame_id) >= finished_at[frame_id]


def test_a_source_on_a_dead_device_gets_each_credit_back_once():
    """The source's own device is down: each admitted frame's send fails
    inside ``Transport.send``, and the dead letter hands the credit back
    in an event of its own, never from inside the source's emit."""
    home = VideoPipe.paper_testbed(seed=9)
    home.enable_audit()
    services = install_fitness_services(
        home, recognizer=train_activity_recognizer(seed=0))
    pipeline = FitnessApp(home, services).deploy(
        fitness_pipeline_config(fps=10.0, duration_s=4.0))
    source = pipeline.module_instance("video_streaming_module").source
    depth = {"now": 0, "max": 0}
    grant = source.grant_credit

    def spy_grant():
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        grant()
        depth["now"] -= 1

    source.grant_credit = spy_grant
    home.run(until=1.0)
    home.crash_device("phone")
    before = pipeline.metrics.counter("frames_entered")
    home.run(until=2.0)
    count = pipeline.metrics.counter
    lost = count(f"frames_dropped.{DEAD_LETTER}")
    # every capture of the outage was admitted and dead-lettered
    assert count("frames_entered") - before >= 9
    assert lost >= 9
    home.restart_device("phone")
    at_restart = count("frames_completed")
    home.run()
    assert count("frames_completed") >= at_restart + 10
    assert depth["max"] == 1
    assert count("ready_signals") == count("frames_entered")
    assert not pipeline.wiring.credits_owed
    assert_every_frame_ended(home, pipeline)


def crash_and_failure(seed, traced=False):
    """Odd frames raise at a slow desktop stage, and the desktop crashes
    with pushed frames still queued there."""
    home = VideoPipe.paper_testbed(seed=seed)
    if traced:
        home.enable_tracing()
    pipeline = home.deploy_pipeline(PipelineConfig(
        name="crashy", source="camera",
        modules=[
            camera(["odd"], fps=30.0, mode="push"),
            stage("odd", "./HandlerFailureOdd.js", ["sink"],
                  device="desktop"),
            stage("sink", "./HandlerFailureSink.js", device="desktop"),
        ],
    ))

    def run_fn():
        home.run(until=0.5)
        home.crash_device("desktop")
        home.run(until=2.0)
        return pipeline.metrics.counters()

    return home, run_fn


def test_a_dropped_frames_trace_root_carries_its_reason():
    home, run_fn = crash_and_failure(seed=9, traced=True)
    counters = run_fn()
    assert counters[f"frames_dropped.{CRASH}"] > 0
    assert counters[FAILED] > 0
    reasons = {
        span.attrs.get("reason") for span in home.tracer.spans
        if span.category == CAT_FRAME and span.attrs["outcome"] == "dropped"
    }
    assert {CRASH, HANDLER_FAILED} <= reasons


def test_reasons_on_the_trace_do_not_perturb_the_run():
    plain = record_scenario(crash_and_failure, 9)
    traced = record_scenario(
        lambda seed: crash_and_failure(seed, traced=True), 9)
    assert traced.events == plain.events
    assert traced.fingerprint == plain.fingerprint


def test_a_fan_out_from_a_downed_device_attaches_no_late_waiter(monkeypatch):
    """The source's device is down, so both copies of each frame it fans
    out fail inside ``Transport.send``. Each is dead-lettered in the call,
    once the fan-out has registered both, and never through a waiter on a
    send that has already failed (a zero-delay event that moves no time)."""
    late = Counter()
    wait = Signal.wait

    def spy(signal, callback, *args):
        if signal.resolved:
            late[getattr(callback, "__qualname__", repr(callback))] += 1
        wait(signal, callback, *args)

    monkeypatch.setattr(Signal, "wait", spy)
    home = VideoPipe.paper_testbed(seed=9)
    home.enable_audit()
    pipeline = home.deploy_pipeline(PipelineConfig(
        name="fan-out", source="camera",
        modules=[
            camera(["left", "right"], duration_s=2.0),
            stage("left", "./HandlerFailureSink.js"),
            stage("right", "./HandlerFailureSink.js"),
        ],
    ))
    home.run(until=0.5)
    home.crash_device("phone")
    home.run(until=1.5)
    count = pipeline.metrics.counter
    lost = count(f"frames_dropped.{DEAD_LETTER}")
    assert lost >= 5
    assert count("dead_letters") == 2 * lost  # both copies of each frame
    assert not late, late
    home.restart_device("phone")
    home.run()
    assert count("ready_signals") == count("frames_entered")
    assert not pipeline.wiring.credits_owed
    assert_every_frame_ended(home, pipeline)
