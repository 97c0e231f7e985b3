"""Observers leave the event stream alone on the cache-hit and pooled path.

``tools/determinism_digests.json`` pins ten example homes, and none of them
reaches a cache hit or a pooled grant on its tapped kernel (docs/AUDIT.md
"What the digests cover"). This home does: a static-scene fitness pipeline
with the fast path (frame dedup, result cache) and the data plane (arenas,
pooled service replicas) on, so nearly every pose call is a cache hit and
every compute call takes a slot of the device's shared replica pool.

It runs three times under an :class:`EventTap` — bare, traced, and traced
and audited — and the three event streams must be one stream: the same
executed-event count and the same :func:`stream_digest`. An observer that
attaches a waiter to a call that already resolved (a cache hit) costs the
observed run one zero-delay event per call, and fails here.

A crash from a fault plan fails a host's in-flight calls outside any
event's drain, so each waiter of those calls takes a zero-delay event of
its own: the runtime's one completion waiter per call is all there is, and
the tracer adds none (the ``chaos_fitness`` scenario, bare and traced).

The same home holds the runtime to docs/PERF.md "What is an event" from
the callers' side: a signal that already resolved is consumed in the call,
never waited on, so every event it executes moves the clock (a timer or a
hold ending) or starts a process, a ship or a service dispatch.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.audit.determinism import EventTap, stream_digest
from repro.core import VideoPipe
from repro.sim.signals import Signal
from scenarios import EXAMPLE_SCENARIOS

DURATION = 2.0
FPS = 30.0
SEED = 5

#: The three observer sets each run of the home is made with.
RUNS = {"bare": (), "traced": ("tracing",), "audited": ("tracing", "audit")}

#: The events that move simulated time or hand control to a new party: a
#: process's start, and the start of a cross-device ship or of a service
#: dispatch, each of which begins where a process would.
MOVES_THE_CLOCK = {"Signal._fire", "Resource._held", "Process._resume start",
                   "ModuleRuntime._ship", "_Dispatch._start"}


class KindTap(EventTap):
    """An event tap that also counts each executed event's kind: its
    callback, and for a process whether the event starts or wakes it."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: Counter[str] = Counter()

    def on_execute(self, now, event) -> None:
        super().on_execute(now, event)
        kind = getattr(event.callback, "__qualname__", repr(event.callback))
        if kind == "Process._resume":
            kind += " start" if event.args[0] == 0 else " wake"
        self.kinds[kind] += 1


def run(recognizer, observers=()):
    """Build the home with *observers* on, deploy its pipeline and drain
    it; the home and its tap."""
    home = VideoPipe.paper_testbed(seed=SEED)
    home.enable_fast_path()
    home.enable_data_plane()
    if "tracing" in observers:
        home.enable_tracing()
    if "audit" in observers:
        home.enable_audit()
    services = install_fitness_services(home, recognizer=recognizer)
    FitnessApp(home, services).deploy(fitness_pipeline_config(
        fps=FPS, duration_s=DURATION, static_scene=True))
    tap = KindTap()
    home.kernel.add_observer(tap)
    home.run(until=DURATION + 1.0)
    home.run()
    return home, tap


@pytest.fixture(scope="module")
def runs(fitness_recognizer):
    return {name: run(fitness_recognizer, observers)
            for name, observers in RUNS.items()}


def stream(tap):
    """Executed-event count and digest of a tapped stream."""
    return sum(tap.kinds.values()), stream_digest(tap.records)


def test_the_home_reaches_cache_hits_and_pooled_grants(runs):
    home, _ = runs["bare"]
    assert home.perf_stats()["cache"]["hits"] > 0
    assert home.data_plane_stats()["pool"]["grants"] > 0


@pytest.mark.parametrize("observed", ["traced", "audited"])
def test_an_observed_run_is_the_bare_run(runs, observed):
    _, bare = runs["bare"]
    home, tap = runs[observed]
    assert home.tracer.span_count > 0
    assert stream(tap) == stream(bare)


def test_every_event_moves_the_clock_or_starts_a_process(runs):
    _, tap = runs["audited"]
    assert set(tap.kinds) <= MOVES_THE_CLOCK, tap.kinds


def test_no_waiter_is_attached_to_a_resolved_signal(fitness_recognizer,
                                                    monkeypatch):
    """Such a waiter is a zero-delay event that moves no time: the caller
    consumes the outcome in the call instead."""
    late = Counter()
    wait = Signal.wait

    def spy(signal, callback, *args):
        if signal.resolved:
            late[getattr(callback, "__qualname__", repr(callback))] += 1
        wait(signal, callback, *args)

    monkeypatch.setattr(Signal, "wait", spy)
    run(fitness_recognizer, RUNS["audited"])
    assert not late, late


def test_a_crash_costs_a_traced_run_no_extra_event():
    """The fault plan's crash fails the desktop's in-flight calls from its
    tick: the traced run executes the bare run's events, one for one."""
    streams, kinds = {}, {}
    for traced in (False, True):
        home, run_fn = EXAMPLE_SCENARIOS["chaos_fitness.py"](7)
        if traced:
            home.enable_tracing()
        tap = KindTap()
        home.kernel.add_observer(tap)
        run_fn()
        streams[traced], kinds[traced] = stream(tap), tap.kinds
    assert home.tracer.span_count > 0
    # the case is reached: a failed call wakes its waiter by an event
    assert kinds[False]["ModuleContext._service_ended"] > 0
    assert streams[True] == streams[False]
