"""Property-based tests for kernel invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Kernel, Resource
from repro.sim.events import LOW, NORMAL, URGENT


class ReferenceKernel:
    """What :class:`Kernel` must do, written the slow obvious way: a plain
    list re-sorted by ``(time, priority, seq)`` before every event, and
    cancellation by removal. A test-side reference, not a second kernel."""

    def __init__(self):
        self.now, self._seq, self._stopped, self._pending = 0.0, 0, False, []

    pending_events = property(lambda self: len(self._pending))

    def schedule(self, delay, callback, priority=NORMAL):
        self._seq += 1
        entry = (self.now + delay, priority, self._seq, callback)
        self._pending.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self._pending:  # not cancelled before, not yet run
            self._pending.remove(entry)

    def stop(self):
        self._stopped = True

    def step(self):
        if not self._pending:
            return False
        self._pending.sort(key=lambda entry: entry[:3])
        self.now, _, _, callback = self._pending.pop(0)
        callback()
        return True

    def run(self, until=None):
        self._stopped = False
        while not self._stopped:
            times = [entry[0] for entry in self._pending]
            if not times or (until is not None and min(times) > until):
                if until is not None:
                    self.now = max(self.now, until)
                break
            self.step()
        return self.now


def play(executor, program):
    """Interpret *program* on *executor* (the kernel or the reference);
    return everything observable: which callback ran when, and the clock
    and ``pending_events`` after every top-level operation."""
    log, handles = [], []

    def callback_for(tag, body):
        def callback():
            log.append(("ran", tag, executor.now, executor.pending_events))
            for op in body:
                apply(op)
        return callback

    def apply(op):
        kind, *rest = op
        if kind == "schedule":
            delay, priority, body = rest
            callback = callback_for(len(handles), body)
            handles.append(executor.schedule(delay, callback, priority=priority))
        elif kind == "cancel" and handles:
            executor.cancel(handles[rest[0] % len(handles)])
        elif kind == "stop":
            executor.stop()
        elif kind == "step":
            log.append(("step", executor.step()))
        elif kind == "run":
            log.append(("run", executor.run(*rest)))

    for op in program:
        apply(op)
        log.append((op[0], executor.now, executor.pending_events))
    return log


# delays and horizons on one grid of exact binary fractions, so that equal
# times, zero delays and horizons before / on / after an event all occur
GRID = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63))
STOP = st.tuples(st.just("stop"))


def schedules(bodies):
    return st.tuples(st.just("schedule"), GRID,
                     st.sampled_from([URGENT, NORMAL, LOW]), bodies)


#: what a callback does: schedule further events (whose callbacks do the
#: same, two levels deep), cancel any event made so far — pending, already
#: run, already cancelled, or itself — and stop the loop
BODIES = st.recursive(
    st.just(()),
    lambda bodies: st.lists(
        st.one_of(schedules(bodies), CANCEL, STOP), max_size=3).map(tuple),
    max_leaves=8,
)
PROGRAMS = st.lists(
    st.one_of(
        schedules(BODIES),
        schedules(BODIES),
        CANCEL,
        STOP,
        st.tuples(st.just("step")),
        st.tuples(st.just("run"), st.one_of(st.none(), GRID)),
    ),
    min_size=1, max_size=25,
)


def _event(delay, *body, priority=NORMAL):
    return ("schedule", delay, priority, body)


@given(program=PROGRAMS)
# a cancelled head must not carry the loop past the horizon
@example([_event(1.0), _event(3.0), ("cancel", 0), ("run", 2.0)])
# cancelling an event that already ran, from outside and from its own
# callback, leaves the count alone
@example([_event(1.0), ("run", None), ("cancel", 0), _event(1.0)])
@example([_event(0.0, ("cancel", 0)), _event(0.5)])
# a horizon behind the clock does not rewind it
@example([_event(2.0), _event(3.0), ("run", 2.5), ("run", 1.0)])
# stop() keeps the rest queued, and the next run() resumes
@example([_event(1.0, ("stop",)), _event(1.0), ("run", 3.0), ("run", 3.0)])
# equal times: priority, then insertion order, also for events made mid-run
@example([_event(1.0, _event(0.0, priority=URGENT), _event(0.0)),
          _event(1.0, priority=LOW), _event(1.0, priority=URGENT)])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_kernel_matches_the_reference_executor(program):
    """Same execution order, same ``now`` after every ``run``, same
    ``pending_events`` throughout — the heap layout, lazy cancellation and
    the shared run loop are invisible."""
    program = program + [("run", None)]
    assert play(Kernel(), program) == play(ReferenceKernel(), program)


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50)
)
def test_execution_times_are_monotone(delays):
    """Events always execute in non-decreasing time order."""
    kernel = Kernel()
    times = []
    for d in delays:
        kernel.schedule(d, lambda: times.append(kernel.now))
    kernel.run()
    assert times == sorted(times)
    assert kernel.now == max(delays)


@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.sampled_from([URGENT, NORMAL, LOW]),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_priority_then_fifo_within_same_time(entries):
    """At equal times, events run by priority then insertion order."""
    kernel = Kernel()
    order = []
    for i, (delay, priority) in enumerate(entries):
        kernel.schedule(
            delay, lambda i=i: order.append(i), priority=priority
        )
    kernel.run()
    keys = [(entries[i][0], entries[i][1], i) for i in order]
    assert keys == sorted(keys)


@given(
    holds=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(holds, capacity):
    """Concurrent holders never exceed capacity; all work completes."""
    kernel = Kernel()
    resource = Resource(kernel, capacity=capacity)
    active = {"count": 0, "max": 0}
    completed = []

    def worker(duration, tag):
        grant = yield resource.request()
        active["count"] += 1
        active["max"] = max(active["max"], active["count"])
        assert active["count"] <= capacity
        yield duration
        active["count"] -= 1
        resource.release(grant)
        completed.append(tag)

    for i, duration in enumerate(holds):
        kernel.process(worker(duration, i))
    kernel.run()
    assert sorted(completed) == list(range(len(holds)))
    assert active["max"] <= capacity
    assert resource.in_use == 0


@given(
    durations=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=15
    )
)
@settings(max_examples=50)
def test_single_slot_resource_serializes_total_time(durations):
    """With capacity 1, total elapsed time is the sum of hold times."""
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)

    def worker(duration):
        grant = yield resource.request()
        yield duration
        resource.release(grant)

    for d in durations:
        kernel.process(worker(d))
    kernel.run()
    assert abs(kernel.now - sum(durations)) < 1e-9 * max(1.0, sum(durations))


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_simulation_is_reproducible(seed):
    """The same seeded workload produces identical event traces."""
    from repro.sim import RngStreams

    def run_once():
        kernel = Kernel()
        rng = RngStreams(seed=seed).stream("workload")
        trace = []

        def proc():
            for _ in range(10):
                yield float(rng.exponential(0.1))
                trace.append(kernel.now)

        kernel.process(proc())
        kernel.run()
        return trace

    assert run_once() == run_once()
