"""``Kernel.every``: the one way a controller ticks.

The seeded property holds a ticker to the process it replaced: started at
the same point of the same program, ``kernel.every(period, fn, first=…)``
and a ``[yield first;] while True: fn(); yield period`` process run every
callback in the same order at the same instants, and the kernel sees the
same ``(time, priority, seq)`` stream — so a controller moved onto a ticker
keeps every tick's place among same-instant events.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.determinism import EventTap
from repro.errors import SimulationError
from repro.sim import Kernel
from repro.sim.events import LOW, NORMAL, URGENT

from .test_properties import FUZZ_N, GRID

HORIZON = 4.0


def start_process(kernel, period, fn, first=None):
    """The reference: the generator a controller's ``_loop`` used to be."""
    first = period if first is None else first

    def loop():
        if first:
            yield first
        while True:
            fn()
            yield period

    kernel.process(loop())


def start_ticker(kernel, period, fn, first=None):
    kernel.every(period, fn, first=first)


def play(start, program, period, first):
    """Run *program* — background events, each of which may schedule more,
    and one ``("start",)`` that starts the periodic callback — and return
    everything observable: the callback log and the kernel's event stream."""
    kernel = Kernel()
    tap = EventTap()
    kernel.add_observer(tap)
    log, started = [], []

    def tick():
        log.append(("tick", kernel.now))
        kernel.schedule(0.0, log.append, ("after tick", kernel.now))

    def apply(op):
        if op[0] == "start" and not started:
            started.append(True)
            start(kernel, period, tick, first)
        elif op[0] == "schedule":
            _, delay, priority, body = op
            tag = len(log)
            kernel.schedule(delay, run_body, tag, body, priority=priority)

    def run_body(tag, body):
        log.append(("event", tag, kernel.now))
        for op in body:
            apply(op)

    for op in program:
        apply(op)
    kernel.run(until=HORIZON)
    stream = [(phase, time, priority, seq)
              for phase, time, priority, seq, _ in tap.records]
    return log, stream


START = st.tuples(st.just("start"))


def schedules(bodies):
    return st.tuples(st.just("schedule"), GRID,
                     st.sampled_from([URGENT, NORMAL, LOW]), bodies)


#: background callbacks schedule more background events (two levels deep)
#: and may be the one that starts the periodic callback, mid-run
BODIES = st.recursive(
    st.just(()),
    lambda bodies: st.lists(st.one_of(schedules(bodies), START),
                            max_size=3).map(tuple),
    max_leaves=8,
)
PROGRAMS = st.lists(st.one_of(schedules(BODIES), START), min_size=1,
                    max_size=12)
PERIODS = st.sampled_from([0.25, 0.5, 0.75])
FIRSTS = st.one_of(st.none(), st.just(0.0), GRID)


def _event(delay, *body, priority=NORMAL):
    return ("schedule", delay, priority, body)


@given(program=PROGRAMS, period=PERIODS, first=FIRSTS)
# started before anything else, and after an event due on its first tick
@example(program=[("start",), _event(0.5)], period=0.5, first=None)
@example(program=[_event(0.5), ("start",)], period=0.5, first=None)
# started mid-run by an event whose child lands on the first tick
@example(program=[_event(0.25, _event(0.5), ("start",), _event(0.0))],
         period=0.5, first=None)
# probing at once, as the failure detector does
@example(program=[_event(0.0), ("start",), _event(0.0, priority=URGENT)],
         period=0.25, first=0.0)
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_a_ticker_takes_the_place_of_the_process_it_replaced(
        program, period, first):
    assert (play(start_ticker, program, period, first)
            == play(start_process, program, period, first))


class TestCancel:
    def test_before_the_first_tick(self):
        kernel = Kernel()
        ticks = []
        kernel.schedule(5.0, lambda: None)
        before = kernel.pending_events
        ticker = kernel.every(1.0, ticks.append, "tick")
        ticker.cancel()
        assert kernel.pending_events == before
        kernel.run(until=0.0)  # past the start event too
        ticker = kernel.every(1.0, ticks.append, "tick")
        kernel.run(until=0.5)  # the start event armed the first tick
        ticker.cancel()
        assert kernel.pending_events == before
        kernel.run()
        assert ticks == []

    def test_between_ticks(self):
        kernel = Kernel()
        ticks = []
        ticker = kernel.every(1.0, lambda: ticks.append(kernel.now))
        kernel.schedule(2.5, ticker.cancel)
        kernel.run()
        assert ticks == [1.0, 2.0]
        assert kernel.now == 2.5
        assert kernel.pending_events == 0

    def test_from_inside_a_tick(self):
        kernel = Kernel()
        ticks = []

        def tick():
            ticks.append(kernel.now)
            if len(ticks) == 3:
                ticker.cancel()

        ticker = kernel.every(0.5, tick, first=0.0)
        kernel.run()
        assert ticks == [0.0, 0.5, 1.0]
        assert kernel.pending_events == 0

    def test_twice_is_a_noop(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        ticker = kernel.every(0.5, lambda: None)
        kernel.run(until=0.75)
        ticker.cancel()
        ticker.cancel()
        assert kernel.pending_events == 1


def test_a_tick_that_raises_propagates_out_of_run():
    """A controller whose tick raised used to die silently: its process
    failed, and nobody joined it."""
    kernel = Kernel()
    ticks = []

    def tick():
        ticks.append(kernel.now)
        if len(ticks) == 2:
            raise ValueError("broken controller")

    kernel.every(1.0, tick)
    with pytest.raises(ValueError, match="broken controller"):
        kernel.run(until=10.0)
    assert kernel.now == 2.0
    assert kernel.pending_events == 0  # nothing re-armed after the raise


def test_ticks_pass_their_arguments_and_start_where_asked():
    kernel = Kernel()
    ticks = []
    kernel.every(0.5, lambda tag: ticks.append((tag, kernel.now)), "x",
                 first=0.25)
    kernel.run(until=1.5)
    assert ticks == [("x", 0.25), ("x", 0.75), ("x", 1.25)]


@pytest.mark.parametrize("period, first", [
    (0.0, None), (-1.0, None), (float("nan"), None),
    (1.0, -0.5), (1.0, float("nan")),
])
def test_the_period_and_the_first_delay_are_checked(period, first):
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.every(period, lambda: None, first=first)
    assert kernel.pending_events == 0
