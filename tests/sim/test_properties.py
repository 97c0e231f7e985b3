"""Property-based tests for kernel invariants.

``REPRO_FUZZ_N`` scales the example budget of the three reference-executor
tests like the other fuzz suites (default 300; CI's audit job runs 3000).
"""

import functools
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import Interrupt, SimulationError
from repro.sim import Kernel, Resource
from repro.sim.events import LOW, NORMAL, URGENT


FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


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
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_kernel_matches_the_reference_executor(program):
    """Same execution order, same ``now`` after every ``run``, same
    ``pending_events`` throughout — the heap layout, lazy cancellation and
    the shared run loop are invisible."""
    program = program + [("run", None)]
    assert play(Kernel(), program) == play(ReferenceKernel(), program)


# -- processes on top of the event list ---------------------------------------
class ReferenceSignal:
    """What :class:`~repro.sim.Signal` must do. Resolved while the
    executor's one ``waking`` queue is being drained — by a process that
    ends there, or by any code a drained waiter runs — it queues its
    waiters behind the ones still to come. Otherwise, resolved by the
    kernel itself (``inline``: its timer fired, or the process it belongs
    to ended) it starts that drain and its waiters are called, in
    registration order, inside that same event; resolved from ordinary code
    it schedules one zero-delay event per waiter, in that order."""

    def __init__(self, executor):
        self.executor, self.outcome, self.waiters = executor, None, []
        #: what takes a pending signal back from whatever was to resolve it
        #: once its last waiter is interrupted away: the timer's cancel, or
        #: the removal of a queued request
        self.leave = None

    pending = property(lambda self: self.outcome is None)

    def wait(self, callback):
        if self.pending:
            self.waiters.append(callback)
        else:  # a late waiter is scheduled, whoever resolved the signal
            self.executor.schedule(0.0, functools.partial(callback, *self.outcome))

    def succeed(self, value=None):
        return self.resolve((value, None))

    def fail(self, exc):
        return self.resolve((None, exc))

    def resolve(self, outcome, inline=False):
        assert self.pending
        self.outcome = outcome
        wakes = [functools.partial(waiter, *outcome) for waiter in self.waiters]
        self.waiters = []
        if self.executor.waking is not None:
            self.executor.waking.extend(wakes)  # behind the waiters still to come
        elif not inline:
            for wake in wakes:
                self.executor.schedule(0.0, wake)
        else:
            self.executor.waking = wakes
            while wakes:
                wakes.pop(0)()
            self.executor.waking = None
        return self


class ReferenceProcess:
    """What :class:`~repro.sim.Process` must do: start through one event —
    or, made while a drain runs, at the back of that drain — then run until
    the generator yields something still *pending*: a resolved signal, a
    finished process and an invalid yield are answered on the spot, in the
    same event. Its last event wakes whoever waits for it: the end resolves
    ``done`` the way a timer resolves its timeout."""

    def __init__(self, executor, gen):
        self.executor, self.gen = executor, gen
        self.done = ReferenceSignal(executor)
        self.epoch, self.parked = 0, None
        start = functools.partial(self.resume, 0, None, None)
        if executor.waking is not None:
            executor.waking.append(start)
        else:
            executor.schedule(0.0, start)

    def resume(self, epoch, value, exc):
        if epoch != self.epoch or not self.done.pending:
            return  # a wake-up for a wait that was interrupted away
        self.parked = None
        while True:
            try:
                target = self.gen.send(value) if exc is None else self.gen.throw(exc)
            except StopIteration as stop:
                return self.done.resolve((stop.value, None), inline=True)
            except Exception as error:
                return self.done.resolve((None, error), inline=True)
            if isinstance(target, ReferenceProcess):
                target = target.done
            elif isinstance(target, float):
                target = self.executor.timeout(target)
            if not isinstance(target, ReferenceSignal):
                value, exc = None, SimulationError(f"yielded {target!r}")
            elif not target.pending:
                value, exc = target.outcome
            else:
                self.epoch += 1
                self.parked = target, functools.partial(self.resume, self.epoch)
                target.waiters.append(self.parked[1])
                return

    def interrupt(self, cause=None):
        if not self.done.pending:
            return
        if self.parked is not None and self.parked[0].pending:
            signal, waiter = self.parked
            signal.waiters.remove(waiter)
            if signal.leave is not None and not signal.waiters:
                signal.leave()  # nobody is left to wake
        self.epoch += 1
        self.parked = None
        self.executor.schedule(
            0.0, functools.partial(self.resume, self.epoch, None, Interrupt(cause)),
            priority=URGENT)


class ReferenceResource:
    """What :class:`~repro.sim.Resource` must do. A slot is requested at the
    call. A free slot (nobody queued) is granted there; a queued request —
    lowest priority first, then first come — is granted by a release, which
    resolves its signal from ordinary code. A hold goes on in the call when
    its slot is free, else in its grant's wake-up; the grant arms the timer,
    and the timer releases the slot, then wakes the hold's waiters inline,
    like a timeout. Busy time is integrated over every change of ``busy``,
    and the timer counts each hold run to its end and the seconds it held."""

    def __init__(self, executor, capacity):
        self.executor, self.capacity = executor, capacity
        self.busy, self.queue, self.requests = 0, [], 0
        self.changes = [(executor.now, 0)]
        self.holds_completed, self.held_seconds = 0, 0.0

    def _set_busy(self, busy):
        self.busy = busy
        self.changes.append((self.executor.now, busy))

    def request(self, priority=0):
        sig = ReferenceSignal(self.executor)
        self.requests += 1
        if self.busy < self.capacity and not self.queue:
            self._set_busy(self.busy + 1)
            sig.succeed("grant")
        else:
            entry = (priority, self.requests, sig)
            self.queue.append(entry)
            sig.leave = functools.partial(self.queue.remove, entry)
        return sig

    def release(self, _grant=None):
        self._set_busy(self.busy - 1)
        if self.queue and self.busy < self.capacity:
            self.queue.sort(key=lambda entry: entry[:2])
            self._set_busy(self.busy + 1)
            self.queue.pop(0)[2].succeed("grant")

    def hold(self, duration, priority=0):
        done = ReferenceSignal(self.executor)
        request = self.request(priority)
        if request.pending:
            request.waiters.append(
                lambda _grant, _exc: self.granted(done, duration))
        else:
            self.granted(done, duration)
        return done

    def granted(self, done, duration):
        self.executor.schedule(duration, functools.partial(self.held, done, duration))

    def held(self, done, duration):
        self.release()
        self.holds_completed += 1
        self.held_seconds += duration
        done.resolve((duration, None), inline=True)

    def utilization(self):
        now, (start, _) = self.executor.now, self.changes[0]
        if now - start <= 0:
            return 0.0
        times = [time for time, _ in self.changes[1:]] + [now]
        integral = 0.0
        for (time, busy), until in zip(self.changes, times):
            integral += busy * (until - time)
        return integral / ((now - start) * self.capacity)


class ReferenceProcesses(ReferenceKernel):
    """:class:`ReferenceKernel` plus the three factories processes use."""

    #: the wake-ups still to be called inside the event now executing
    waking = None

    def signal(self):
        return ReferenceSignal(self)

    def timeout(self, delay, value=None):
        sig = ReferenceSignal(self)
        timer = self.schedule(delay, lambda: sig.resolve((value, None), inline=True))
        sig.leave = functools.partial(self.cancel, timer)
        return sig

    def process(self, gen):
        return ReferenceProcess(self, gen)


class Boom(Exception):
    pass


MAX_PROCESSES = 8


def play_processes(executor, timer_delays, scripts, resource=Resource):
    """Run *scripts* as processes on *executor*; return one
    ``(time, actor, step, kind, outcome, pending_events)`` entry per finished
    step, then the final clock, the events executed, who is still alive and
    each pool's utilization, completed holds and held seconds.

    Three plain signals, the timeouts of *timer_delays* and two *resource*
    pools (one slot, two slots) exist from time zero and are shared by every
    process; every script is spawned once at time zero, and ``spawn`` steps
    add instances up to ``MAX_PROCESSES``."""
    log, procs = [], []
    signals = [executor.signal() for _ in range(3)]
    timers = [executor.timeout(delay) for delay in timer_delays]
    pools = [resource(executor, capacity) for capacity in (1, 2)]

    def spawn(script):
        if len(procs) < MAX_PROCESSES:
            procs.append(executor.process(body(len(procs), scripts[script % len(scripts)])))

    def act(actor, index, kind, arg):
        tag = (actor, index)
        if kind == "succeed" and signals[arg].pending:
            signals[arg].succeed(tag)
        elif kind == "fail" and signals[arg].pending:
            signals[arg].fail(Boom())
        elif kind == "interrupt":
            procs[arg % len(procs)].interrupt(tag)
        elif kind == "spawn":
            spawn(arg)
        elif kind == "watch":  # a plain callback among a process's joiners
            procs[arg % len(procs)].done.wait(lambda value, exc: log.append(
                (executor.now, actor, index, "woke", (value, type(exc).__name__),
                 executor.pending_events)))

    def body(actor, script):
        grants = []  # (pool, grant) this process holds, oldest first
        for index, (kind, arg) in enumerate(script):
            try:
                if kind == "delay":
                    result = yield arg
                elif kind == "signal":
                    result = yield signals[arg]
                elif kind == "timer":
                    result = yield timers[arg]
                elif kind == "resolved":
                    result = yield executor.signal().succeed((actor, index))
                elif kind == "failed":
                    result = yield executor.signal().fail(Boom())
                elif kind == "join":
                    result = yield procs[arg % len(procs)]
                elif kind == "bad":
                    result = yield "not awaitable"
                elif kind == "hold":
                    pool, seconds, priority = arg
                    result = yield pools[pool].hold(seconds, priority)
                elif kind == "request":
                    pool, priority = arg
                    grants.append((pool, (yield pools[pool].request(priority))))
                    result = pool
                elif kind == "release":
                    result = None
                    if grants:
                        result, grant = grants.pop(0)
                        pools[result].release(grant)
                else:
                    result = act(actor, index, kind, arg)
                outcome = ("ok", result)
            except Interrupt as interrupt:
                outcome = ("interrupted", interrupt.cause)
            except (Boom, SimulationError) as error:
                outcome = (type(error).__name__,)
            log.append((executor.now, actor, index, kind, outcome,
                        executor.pending_events))
        return actor

    for script in range(len(scripts)):
        spawn(script)
    executed = 0
    while executor.step():
        executed += 1
    log.append(("end", executor.now, executed, [p.done.pending for p in procs],
                [(pool.utilization(), pool.holds_completed, pool.held_seconds)
                 for pool in pools]))
    return log


def _steps(kind, values):
    return st.tuples(st.just(kind), values)


_SIGNALS, _TIMERS, _ANYONE = (
    st.integers(0, 2), st.integers(0, 1), st.integers(0, MAX_PROCESSES - 1))
SCRIPTS = st.lists(
    st.lists(
        st.one_of(
            _steps("delay", GRID), _steps("delay", GRID),
            _steps("signal", _SIGNALS), _steps("timer", _TIMERS),
            _steps("resolved", st.none()), _steps("failed", st.none()),
            _steps("join", _ANYONE), _steps("bad", st.none()),
            _steps("succeed", _SIGNALS), _steps("fail", _SIGNALS),
            _steps("interrupt", _ANYONE), _steps("spawn", _ANYONE),
            _steps("watch", _ANYONE),
        ),
        max_size=6,
    ),
    min_size=1, max_size=4,
)
_WAIT_0, _WAIT_1, _NAP = ("timer", 0), ("timer", 1), ("delay", 0.0)


@given(timer_delays=st.tuples(GRID, GRID), scripts=SCRIPTS)
# a timer wakes its waiters in its own event: registration order, ahead of
# an event scheduled for that instant before the timer fired
@example((1.0, 1.0), [[("delay", 1.0)], [_WAIT_0], [_WAIT_1], [_WAIT_0]])
# resolved, failed and finished awaitables, and an invalid yield, answered
# in the same event; `yield 0.0` still lets the other process go first
@example((0.0, 0.0), [[("resolved", None), ("failed", None), ("join", 1),
                       ("bad", None), _NAP, ("resolved", None)],
                      [_NAP, ("resolved", None)]])
# a waiter of a firing timer interrupts a later waiter of the same timer
@example((1.0, 0.0), [[_WAIT_0, ("interrupt", 1)], [_WAIT_0, _NAP]])
# an interrupted waiter leaves a shared timeout to the others; the last one
# to leave cancels it
@example((2.0, 0.0), [[_WAIT_0], [_WAIT_0], [("delay", 1.0), ("interrupt", 0)]])
@example((2.0, 0.0), [[_WAIT_0], [("delay", 1.0), ("interrupt", 0), _WAIT_0]])
# an interrupted waiter of a plain signal costs no event when it resolves
@example((0.0, 0.0), [[("signal", 0)],
                      [_NAP, ("interrupt", 0), ("succeed", 0), _NAP]])
# interrupting a process that has not started, and one that never parks
@example((0.0, 0.0), [[("interrupt", 1), ("join", 1)], [("delay", 1.0)]])
@example((0.0, 0.0), [[("resolved", None), ("interrupt", 0), ("resolved", None),
                       _NAP, _NAP]])
# a process's last event wakes its joiners: a join chain ends in the one
# timer event, ahead of an event already queued for that instant
@example((0.0, 0.0), [[("join", 1)], [("join", 2)], [("join", 3)],
                      [("delay", 1.0)], [("delay", 1.0)]])
# two joiners and a plain callback on one process: registration order, and a
# watcher attached after the end is scheduled like any late waiter
@example((0.0, 0.0), [[("join", 3)], [("watch", 3), ("join", 3), ("watch", 3)],
                      [("watch", 3), ("delay", 0.5)], [("delay", 0.5)]])
# a process that dies wakes its joiners the same way, with its exception
@example((0.0, 0.0), [[("join", 1)], [("failed", None), ("interrupt", 1), _NAP]])
# a joiner interrupts the next joiner of the same process
@example((0.0, 0.0), [[("join", 2), ("interrupt", 1)], [("join", 2), _NAP],
                      [("delay", 1.0)]])
# a joiner interrupted while parked on a process leaves no wake-up behind
@example((0.0, 0.0), [[("join", 2)], [_NAP, ("interrupt", 0)], [("delay", 1.0)]])
# a process ends inside a shared timer's firing: its joiner runs after the
# timer's remaining waiters, not in front of them
@example((1.0, 0.0), [[_WAIT_0], [("join", 0)], [_WAIT_0]])
# a signal resolved by a waiter inside a drain wakes its own waiters in that
# drain, not through one event each
@example((0.0, 0.0), [[_NAP, ("succeed", 0)], [("signal", 0)]])
# the tie-break: the hand-off runs ahead of a timer already queued for the
# same instant
@example((1.0, 0.0), [[_WAIT_0, ("succeed", 1)], [("signal", 1)], [("delay", 1.0)]])
# a process spawned inside a timer's drain starts in it, ahead of a timer
# already queued for the same instant
@example((1.0, 0.0), [[_WAIT_0, ("spawn", 2)], [("delay", 1.0)], [("resolved", None)]])
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_processes_match_the_reference_executor(timer_delays, scripts):
    """Same steps finished at the same times in the same order, the same
    number of events pending after each and executed in all: ``Signal``,
    ``Process`` and ``Kernel.timeout`` spend an event only to move time or
    to hand control to another party."""
    assert (play_processes(Kernel(), timer_delays, scripts)
            == play_processes(ReferenceProcesses(), timer_delays, scripts,
                              resource=ReferenceResource))


_HOLDS = st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                   st.integers(0, 2))
#: scripts where most steps hold a pool, so requests queue behind each other
HOLD_SCRIPTS = st.lists(
    st.lists(
        st.one_of(
            _steps("hold", _HOLDS), _steps("hold", _HOLDS), _steps("hold", _HOLDS),
            _steps("delay", GRID), _steps("join", _ANYONE),
            _steps("interrupt", _ANYONE), _steps("spawn", _ANYONE),
            _steps("watch", _ANYONE),
        ),
        max_size=5,
    ),
    min_size=1, max_size=4,
)


_REQUESTS = st.tuples(st.sampled_from((0, 0, 1)), st.integers(0, 2))
#: scripts that mix holds with request/release on the same pools, the way a
#: service host's workers request the slots a device's CPU jobs hold: free
#: holds, queued holds and queued grants interleave. The first process holds
#: the one-slot pool for a second, requests mostly ask for that pool, and
#: requests and interrupts are weighted up: so a request queued behind the
#: hold and then interrupted, which must leave the queue
#: (``Resource._withdraw``), is common rather than left to one example
MIXED_SCRIPTS = st.lists(
    st.lists(
        st.one_of(
            _steps("hold", _HOLDS), _steps("hold", _HOLDS),
            _steps("request", _REQUESTS), _steps("request", _REQUESTS),
            _steps("request", _REQUESTS),
            _steps("release", st.none()), _steps("release", st.none()),
            _steps("delay", GRID), _steps("timer", _TIMERS),
            _steps("interrupt", _ANYONE), _steps("interrupt", _ANYONE),
            _steps("join", _ANYONE),
        ),
        min_size=1, max_size=6,
    ),
    min_size=2, max_size=3,
).map(lambda scripts: [[("hold", (0, 1.0, 0))], *scripts])


def _hold(pool, seconds, priority=0):
    return ("hold", (pool, seconds, priority))


def _request(pool, priority=0):
    return ("request", (pool, priority))


_RELEASE = ("release", None)


@given(timer_delays=st.tuples(GRID, GRID),
       scripts=st.one_of(HOLD_SCRIPTS, MIXED_SCRIPTS))
# a hold's timer takes the seq of the call, not of a start event: it fires
# ahead of a timer armed for the same instant after the call, and the holder
# wakes inside it
@example((0.0, 0.0), [[_hold(0, 1.0)], [("delay", 1.0)]])
# a queued grant is one wake-up, priority first, then first come; a
# zero-length hold still costs its timer event
@example((0.0, 0.0), [[_hold(0, 0.0)], [_hold(0, 0.0, 2)],
                      [_hold(0, 0.0, 1)], [_hold(0, 0.0, 1)]])
# the timer releases the slot before the holder wakes: holding again is
# granted in the same event, unless someone queued first
@example((0.0, 0.0), [[_hold(0, 1.0), _hold(0, 1.0)]])
@example((0.0, 0.0), [[_hold(0, 1.0), _hold(0, 1.0)],
                      [("delay", 0.5), _hold(0, 0.5)]])
# an interrupted holder leaves its hold to run out and release the slot
@example((0.0, 0.0), [[_hold(0, 1.0)], [("delay", 0.5), ("interrupt", 0),
                                        _hold(0, 0.25)]])
# the holder ends inside the timer, so its joiner runs there too, and the
# other slot's timer for that instant is an event of its own
@example((0.0, 0.0), [[_hold(1, 1.0)], [("join", 0)], [_hold(1, 1.0)]])
# a requested slot queues a hold, and the hold queues a request of higher
# priority: each release grants the next in priority order
@example((0.0, 0.0), [[_request(0), ("delay", 1.0), _RELEASE], [_hold(0, 0.5, 1)],
                      [_request(0), _RELEASE]])
# a release made inside a timer's drain grants the queued hold there, so
# its timer is armed in that event
@example((1.0, 0.0), [[_request(0), ("timer", 0), _RELEASE], [_hold(0, 0.5)],
                      [("timer", 0), _hold(0, 0.5)]])
# an interrupted request leaves the queue; the slot goes to the next
@example((0.0, 0.0), [[_hold(0, 1.0)], [_request(0)],
                      [("interrupt", 1), _hold(0, 0.25)]])
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_holds_match_the_reference_executor(timer_delays, scripts):
    """``Resource.hold`` under contention — priorities, zero-length holds,
    interrupted holders, slots requested and released by hand on the same
    pool — spends an event only on its timer and on the wake-up of a queued
    grant, in the same order as the reference, and integrates the same busy
    time."""
    assert (play_processes(Kernel(), timer_delays, scripts)
            == play_processes(ReferenceProcesses(), timer_delays, scripts,
                              resource=ReferenceResource))


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
