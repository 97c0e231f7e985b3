"""Unit tests for the discrete-event kernel."""

import gc
import time as wall_time

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Kernel, RealtimeKernel, Signal


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_schedule_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Kernel().schedule(-0.1, lambda: None)

    def test_schedule_nan_delay_rejected(self):
        """``nan < 0`` is false: NaN used to enter the heap, break its
        ordering and become ``Kernel.now`` while its callback ran."""
        k = Kernel()
        with pytest.raises(SimulationError):
            k.schedule(float("nan"), lambda: None)
        assert k.pending_events == 0

    def test_events_run_in_time_order(self):
        k = Kernel()
        seen = []
        k.schedule(2.0, seen.append, "b")
        k.schedule(1.0, seen.append, "a")
        k.schedule(3.0, seen.append, "c")
        k.run()
        assert seen == ["a", "b", "c"]
        assert k.now == 3.0

    def test_same_time_events_run_in_insertion_order(self):
        k = Kernel()
        seen = []
        for tag in "abc":
            k.schedule(1.0, seen.append, tag)
        k.run()
        assert seen == ["a", "b", "c"]

    def test_cancel_prevents_execution(self):
        k = Kernel()
        seen = []
        event = k.schedule(1.0, seen.append, "x")
        k.cancel(event)
        k.run()
        assert seen == []

    def test_cancel_after_run_is_a_noop(self):
        """Cancelling an event that already ran used to decrement the live
        count a second time: ``pending_events`` went negative, or
        under-counted the events still queued."""
        k = Kernel()
        ran = k.schedule(1.0, lambda: None)
        k.run()
        k.cancel(ran)
        assert k.pending_events == 0
        assert not ran.cancelled
        later = k.schedule(1.0, lambda: None)
        k.cancel(ran)
        assert k.pending_events == 1
        k.cancel(later)
        assert k.pending_events == 0

    def test_run_until_in_the_past_does_not_rewind_the_clock(self):
        k = Kernel()
        k.schedule(5.0, lambda: None)
        k.schedule(9.0, lambda: None)
        assert k.run(until=6.0) == 6.0
        assert k.run(until=3.0) == 6.0
        assert k.now == 6.0

    def test_run_until_stops_clock_at_limit(self):
        k = Kernel()
        seen = []
        k.schedule(1.0, seen.append, "early")
        k.schedule(10.0, seen.append, "late")
        k.run(until=5.0)
        assert seen == ["early"]
        assert k.now == 5.0
        k.run()
        assert seen == ["early", "late"]

    def test_run_without_events_returns_current_time(self):
        k = Kernel()
        assert k.run() == 0.0

    def test_run_until_with_no_events_advances_clock(self):
        k = Kernel()
        k.run(until=7.0)
        assert k.now == 7.0

    def test_events_scheduled_during_run_execute(self):
        k = Kernel()
        seen = []

        def outer():
            seen.append("outer")
            k.schedule(1.0, seen.append, "inner")

        k.schedule(1.0, outer)
        k.run()
        assert seen == ["outer", "inner"]
        assert k.now == 2.0

    def test_stop_halts_run(self):
        k = Kernel()
        seen = []
        k.schedule(1.0, lambda: (seen.append("a"), k.stop()))
        k.schedule(2.0, seen.append, "b")
        k.run()
        assert seen == ["a"]
        k.run()
        assert seen == ["a", "b"]


class TestScheduleAt:
    def test_lands_on_the_exact_float(self):
        """``now + (at - now)`` need not be *at*: 0.7 + (2.9 - 0.7) is
        2.9000000000000004. ``schedule_at`` keeps the time it is given."""
        k = Kernel()
        k.run(until=0.7)
        at = 2.9
        assert k.now + (at - k.now) != at
        seen = []
        k.schedule_at(at, lambda: seen.append(k.now))
        k.run()
        assert seen == [at]

    def test_now_is_allowed_and_takes_the_next_seq(self):
        k = Kernel()
        seen = []
        k.schedule(0.0, seen.append, "scheduled")
        k.schedule_at(0.0, seen.append, "at")
        k.run()
        assert seen == ["scheduled", "at"]

    @pytest.mark.parametrize("at", [0.5, float("nan")])
    def test_a_time_before_now_or_nan_is_rejected(self, at):
        k = Kernel()
        k.run(until=1.0)
        with pytest.raises(SimulationError):
            k.schedule_at(at, lambda: None)
        assert k.pending_events == 0

    def test_observers_see_it(self):
        k = Kernel()
        recorder = Recorder()
        k.add_observer(recorder)
        k.schedule_at(0.25, lambda: None)
        k.run()
        assert recorder.calls == [("S", 0.0, 0.25, 1), ("X", 0.0, 0.25, 1)]


class Recorder:
    def __init__(self):
        self.calls = []

    def on_schedule(self, now, event):
        self.calls.append(("S", now, event.time, event.seq))

    def on_execute(self, now, event):
        self.calls.append(("X", now, event.time, event.seq))


class TestObservers:
    def test_observer_sees_every_schedule_and_execute(self):
        kernel = Kernel()
        recorder = Recorder()
        kernel.add_observer(recorder)
        kernel.schedule(0.1, lambda: None)
        kernel.schedule(0.2, lambda: None)
        kernel.run()
        assert [c[0] for c in recorder.calls] == ["S", "S", "X", "X"]
        # execute order follows event time, schedule order follows seq
        assert recorder.calls[2][2] == 0.1
        assert recorder.calls[3][2] == 0.2

    def test_add_observer_is_idempotent(self):
        kernel = Kernel()
        recorder = Recorder()
        kernel.add_observer(recorder)
        kernel.add_observer(recorder)
        kernel.schedule(0.1, lambda: None)
        assert len(recorder.calls) == 1

    def test_remove_observer_stops_notifications(self):
        kernel = Kernel()
        recorder = Recorder()
        kernel.add_observer(recorder)
        kernel.schedule(0.1, lambda: None)
        kernel.remove_observer(recorder)
        kernel.run()
        assert [c[0] for c in recorder.calls] == ["S"]

    def test_observation_does_not_perturb_event_sequencing(self):
        def build(observed):
            kernel = Kernel()
            if observed:
                kernel.add_observer(Recorder())
            log = []

            def worker(tag, period):
                for _ in range(3):
                    log.append((kernel.now, tag))
                    yield period

            kernel.process(worker("a", 0.1))
            kernel.process(worker("b", 0.15))
            kernel.run()
            return log, kernel._seq

        assert build(observed=True) == build(observed=False)


class TestTimeout:
    def test_timeout_resolves_with_value(self):
        k = Kernel()
        sig = k.timeout(1.5, "payload")
        assert sig.pending
        k.run()
        assert sig.value == "payload"
        assert k.now == 1.5

    def test_zero_timeout_resolves_at_current_time(self):
        k = Kernel()
        sig = k.timeout(0.0)
        k.run()
        assert sig.succeeded
        assert k.now == 0.0

    def test_fired_timeouts_leave_no_reference_cycle(self):
        # each fired timeout must be freed by reference counting alone: a
        # cycle (the signal holding its timer event, whose callback is the
        # signal's own bound method) is garbage only the collector finds.
        # DEBUG_SAVEALL keeps what the collector finds, so the test looks
        # only at its own objects — signals of its kernel and the events
        # that fire them — whatever else the process leaves behind.
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            k = Kernel()
            signals = [k.timeout(0.001 * i, i) for i in range(50)]
            signals[0].wait(lambda _value, _exc: None)
            k.run()
            assert [s.value for s in signals] == list(range(50))
            del signals
            gc.collect()

            def own(o):
                if isinstance(o, Event):
                    o = getattr(o.callback, "__self__", None)
                return isinstance(o, Signal) and o.kernel is k

            assert [o for o in gc.garbage if own(o)] == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


class TestRunUntilResolved:
    def test_returns_signal_value(self):
        k = Kernel()
        sig = k.timeout(2.0, "done")
        assert k.run_until_resolved(sig) == "done"
        assert k.now == 2.0

    def test_does_not_run_past_resolution_unnecessarily(self):
        k = Kernel()
        sig = k.timeout(1.0)
        k.timeout(100.0)
        k.run_until_resolved(sig)
        assert k.now == 1.0

    def test_raises_when_queue_drains_first(self):
        k = Kernel()
        sig = k.signal()
        with pytest.raises(SimulationError, match="drained"):
            k.run_until_resolved(sig)

    def test_raises_at_time_limit(self):
        k = Kernel()
        sig = k.timeout(10.0)
        with pytest.raises(SimulationError, match="time limit"):
            k.run_until_resolved(sig, limit=1.0)


    def test_stop_leaving_the_signal_pending_raises(self):
        k = Kernel()
        sig = k.timeout(10.0)
        k.schedule(1.0, k.stop)
        with pytest.raises(SimulationError, match="stopped"):
            k.run_until_resolved(sig)
        assert k.now == 1.0
        assert k.run_until_resolved(sig) is None  # and the wait can resume
        assert k.now == 10.0


class TestReentrancy:
    """One loop, one guard: neither entry point may be nested in the other
    (or itself) from inside a callback."""

    @staticmethod
    def nested(k, enter):
        errors = []

        def callback():
            try:
                enter()
            except SimulationError as error:
                errors.append(error)

        k.schedule(1.0, callback)
        k.schedule(2.0, lambda: None)
        return errors

    def test_run_inside_run_until_resolved_is_rejected(self):
        k = Kernel()
        errors = self.nested(k, k.run)
        k.run_until_resolved(k.timeout(3.0))
        assert len(errors) == 1 and "already running" in str(errors[0])
        assert k.now == 3.0

    def test_run_until_resolved_inside_run_is_rejected(self):
        k = Kernel()
        sig = k.timeout(3.0)
        errors = self.nested(k, lambda: k.run_until_resolved(sig))
        k.run()
        assert len(errors) == 1 and "already running" in str(errors[0])
        assert k.now == 3.0

    def test_run_inside_run_is_rejected(self):
        k = Kernel()
        errors = self.nested(k, k.run)
        k.run()
        assert len(errors) == 1

    def test_kernel_runs_again_after_a_rejected_nesting(self):
        k = Kernel()
        self.nested(k, k.run)
        k.run()
        k.schedule(1.0, lambda: None)
        assert k.run() == 3.0


class TestRealtimeKernel:
    def test_rejects_nonpositive_speed(self):
        with pytest.raises(SimulationError):
            RealtimeKernel(speed=0)

    def test_paces_against_wall_clock(self):
        k = RealtimeKernel(speed=50.0)  # 50x fast: 0.5 sim-sec ~ 10 wall-ms
        seen = []
        k.schedule(0.5, seen.append, "x")
        start = wall_time.monotonic()
        k.run()
        elapsed = wall_time.monotonic() - start
        assert seen == ["x"]
        assert elapsed >= 0.008

    def test_flag_distinguishes_modes(self):
        assert RealtimeKernel().realtime
        assert not Kernel().realtime
