"""Host-stream goldens: the referee for the service host's execution path.

``tools/determinism_digests.json`` pins ten example scenarios, and none of
them makes a remote call, dispatches a batch or hits the result cache on a
tapped kernel (docs/AUDIT.md, "What the digests cover"). These scripts
drive a bare :class:`ServiceHost` through exactly those paths — remote
calls with a decode charge, batch formation, cache hits through both entry
points, crash / restart / close mid-call on a private ``Resource`` and on
a ``ReplicaPool`` lease, batching switched on and off mid-flight, a
raising handler — under an :class:`EventTap`, and
``goldens/host_streams.json`` holds, per script: the kernel event count and
label-free stream digest, every call's value or exception string and the
instant it resolved, the order the calls resolved in, how often ``handle``
ran, every server-side span, and the host's counters. Event times,
resolution instants and counters are compared exactly; span boundaries are
derived quantities (a start recomputed as ``end - wait`` can sit one ulp
off the admission instant), so they are compared to the picosecond.

A refactor of ``services/host.py`` that claims "the same program" must pass
this file without regenerating the golden. Regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/services/test_host_streams.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.audit.determinism import EventTap, stream_digest
from repro.services import RemoteServiceStub, Service, ServiceHost
from repro.trace.recorder import TraceRecorder
from repro.trace.span import SpanContext

from .conftest import MiniHome, make_frame

GOLDEN = Path(__file__).parent / "goldens" / "host_streams.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


class ProbeService(Service):
    """Answers with what it saw (frames reduced to their ids), counts every
    ``handle`` invocation, raises on ``{"poison": 1}``."""

    name = "probe"
    reference_cost_s = 0.050
    batch_marginal_cost_frac = 0.5

    def __init__(self, max_batch=1, cacheable=False):
        self.max_batch = max_batch
        self.cacheable = cacheable
        self.handle_calls = 0

    def handle(self, payload, ctx):
        self.handle_calls += 1
        if payload.get("poison"):
            raise RuntimeError(f"poisoned payload {payload['poison']}")
        seen = dict(payload)
        if "frame" in seen:
            seen["frame"] = seen["frame"].frame_id
        return seen


class Script:
    """One tapped :class:`MiniHome` with a ``probe`` host on the desktop and
    a remote stub dialing it from the phone."""

    def __init__(self, max_batch=1, cacheable=False, replicas=1, pooled=False):
        self.home = MiniHome()
        self.kernel = self.home.kernel
        self.tap = EventTap()
        self.kernel.add_observer(self.tap)
        self.service = ProbeService(max_batch=max_batch, cacheable=cacheable)
        self.pool = None
        self.sibling = None
        if pooled:
            self.pool = self.home.desktop.enable_replica_pool(slots=2)
        self.host = self._host(self.service, replicas)
        if pooled:
            # a second service on the same lease pool, so slots are contended
            other = ProbeService()
            other.name = "sibling"
            other.default_port = 7100
            self.sibling = self._host(other, 1)
        self.stub = RemoteServiceStub(
            self.kernel, self.home.transport, self.home.phone, self.host)
        self.calls = []
        self.resolved = []

    def _host(self, service, replicas):
        host = ServiceHost(self.kernel, self.home.desktop, service,
                           self.home.transport, replicas=replicas)
        host.tracer = TraceRecorder(self.kernel)
        if self.pool is not None:
            host.attach_pool(self.pool)
        return host

    # -- arrivals (each usable directly or as ``at(t, script.local, ...)``) --
    def _issue(self, kind, call, payload):
        index = len(self.calls)
        if payload.get("frame"):
            device = self.home.phone if kind == "remote" else self.home.desktop
            payload["frame"] = device.frame_store.put(
                make_frame(frame_id=index, fill=payload["frame"]))
        entry = {"call": f"{kind}{index}", "issued_at": self.kernel.now}
        self.calls.append(entry)
        signal = call(payload, trace=SpanContext(entry["call"], 1000 + index))
        signal.wait(self._resolved, entry)

    def _resolved(self, entry, value, exc):
        entry["resolved_at"] = self.kernel.now
        entry["outcome"] = (
            value if exc is None else f"{type(exc).__name__}: {exc}")
        self.resolved.append(entry["call"])

    def local(self, **payload):
        self._issue("local", self.host.call_local, payload)

    def remote(self, **payload):
        self._issue("remote", self.stub.call, payload)

    def sibling_local(self, **payload):
        self._issue("sibling", self.sibling.call_local, payload)

    def at(self, when, fn, *args, **kwargs):
        self.kernel.schedule(when, lambda: fn(*args, **kwargs))

    # -- the record ------------------------------------------------------------
    def finish(self):
        self.kernel.run()
        self.kernel.remove_observer(self.tap)
        record = {
            "events": len(self.tap.records),
            "digest": stream_digest(self.tap.records),
            "calls": self.calls,
            "resolution_order": self.resolved,
            "handle_calls": self.service.handle_calls,
            "host": self._counters(self.host),
            "frames_live": {name: device.frame_store.live_count
                            for name, device in self.home.devices.items()},
        }
        if self.sibling is not None:
            record["sibling"] = self._counters(self.sibling)
            record["pool_in_use"] = self.pool.slots.in_use
        return record

    @staticmethod
    def _counters(host):
        return {
            "local_calls": host.local_calls,
            "remote_calls": host.remote_calls,
            "errors": host.errors,
            "crashes": host.crashes,
            "dropped_in_flight": host.dropped_in_flight,
            "total_busy_s": host.total_busy_s,
            "total_wait_s": host.total_wait_s,
            "cache_hits": host.cache_hits,
            "cache_misses": host.cache_misses,
            "batched_calls": host.batched_calls,
            "batch_size_counts": {
                str(size): count
                for size, count in sorted(host.batch_size_counts.items())},
            "avg_batch_size": host.avg_batch_size(),
            "busy_workers": host.busy_workers,
            "queue_length": host.queue_length,
            "inflight": len(host._inflight),
            "spans": [
                [span.trace_id, span.name, span.category,
                 round(span.start, 12), round(span.end, 12), span.attrs]
                for span in host.tracer.spans],
        }


# -- (a) remote solo -----------------------------------------------------------
def remote_solo():
    """Remote calls through the stub on a non-batching host: an encoded
    frame (decode charged), a frame-free payload (no decode event), and a
    local call with a ref queued behind them."""
    s = Script()
    s.remote(frame=7)
    s.remote(x=1)
    s.at(0.002, s.local, frame=9)
    s.at(0.400, s.remote, frame=11)   # arrives at an idle host
    return s.finish()


# -- (b) batching --------------------------------------------------------------
def batch_same_instant():
    """Same-instant arrivals coalesce through the zero-delay flush; remote
    ones land later and join whatever is pending."""
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=4, max_wait_s=0.004)
    s.local(x=1)
    s.local(x=2)
    s.remote(frame=3)
    s.remote(x=4)
    s.at(0.500, s.local, x=5)         # lone, idle host: flushes solo
    return s.finish()


def batch_staggered():
    """Arrivals accumulate while the worker is busy, local and remote
    mixed; five at once overflow the max batch."""
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=4, max_wait_s=0.004)
    s.local(x=0)
    s.at(0.010, s.local, frame=1)
    s.at(0.015, s.remote, frame=2)
    s.at(0.020, s.local, x=3)
    for i in range(5):
        s.at(0.600, s.local, x=10 + i)
    return s.finish()


def batch_lone_probes():
    """A worker frees up onto a lone pending request: the company probe
    arms. Once it finds company, then it goes out alone round after round
    until the host stops probing (``SOLO_PROBE_LIMIT``)."""
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=4, max_wait_s=0.030)
    s.local(x=0)
    s.at(0.030, s.local, x=1)         # pending behind x=0; probe on release
    s.at(0.060, s.remote, x=2)        # lands inside the probe window
    for round_ in range(1, 8):
        start = 1.0 * round_
        s.at(start, s.local, r=round_, x=0)
        s.at(start + 0.020, s.local, r=round_, x=1)   # lone at release
    return s.finish()


def batch_two_replicas():
    """Six same-instant arrivals on two replicas: the first four dispatch
    at the cap, the rest go when the first grant shows a replica is free."""
    s = Script(max_batch=4, replicas=2)
    s.host.enable_batching(max_batch=4, max_wait_s=0.004)
    for i in range(6):
        s.local(x=i)
    s.at(0.001, s.remote, frame=6)
    s.at(0.001, s.remote, frame=7)
    return s.finish()


# -- (c) result cache ------------------------------------------------------------
def cache_solo():
    """Hits through both entry points on a non-batching host: the repeat
    of a local payload, the repeat of a wire payload (no decode either),
    and a miss that differs by one parameter."""
    s = Script(cacheable=True)
    s.host.enable_result_cache()
    s.local(frame=5, q=1)
    s.remote(frame=6, q=1)
    s.at(0.300, s.local, frame=5, q=1)
    s.at(0.300, s.remote, frame=6, q=1)
    s.at(0.300, s.local, frame=5, q=2)
    s.at(0.600, s.remote, frame=5, q=1)
    return s.finish()


def cache_batched():
    """The cache in front of the batcher: two identical same-instant
    requests both miss and share a batch; later repeats hit."""
    s = Script(max_batch=4, cacheable=True)
    s.host.enable_batching(max_batch=4, max_wait_s=0.004)
    s.host.enable_result_cache()
    s.local(frame=5)
    s.local(frame=5)
    s.remote(frame=5)
    s.at(0.400, s.local, frame=5)
    s.at(0.400, s.remote, frame=5)
    s.at(0.400, s.local, frame=8)
    return s.finish()


# -- (d) crash, restart, close ---------------------------------------------------
def _crash_script(s):
    """Three local calls and a remote one in flight, a crash, calls at the
    down host (the remote one retries into the restarted host), a restart,
    and calls after it."""
    s.local(x=0)
    s.local(frame=1)
    s.local(x=2)
    s.remote(frame=3)
    if s.sibling is not None:
        s.sibling_local(x=4)
        s.at(0.019, s.sibling_local, x=5)
    s.at(0.020, s.host.crash)
    s.at(0.025, s.local, x=6)
    s.at(0.025, s.remote, x=7)
    s.at(0.040, s.host.restart)
    s.at(0.050, s.local, frame=8)
    s.at(0.050, s.local, x=9)
    s.at(0.050, s.remote, frame=10)
    return s.finish()


def crash_solo_private():
    return _crash_script(Script())


def crash_solo_pooled():
    return _crash_script(Script(pooled=True))


def crash_batch_private():
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=2, max_wait_s=0.004)
    return _crash_script(s)


def crash_batch_pooled():
    s = Script(max_batch=4, pooled=True)
    s.host.enable_batching(max_batch=2, max_wait_s=0.004)
    return _crash_script(s)


def crash_during_probe():
    """A crash while the company probe is armed over a lone pending
    request: the timer is cancelled, the request fails, nothing fires."""
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=4, max_wait_s=0.030)
    s.local(x=0)
    s.at(0.030, s.local, x=1)
    s.at(0.070, s.host.crash)         # x=0 done ~0.05; probe armed till ~0.08
    s.at(0.200, s.host.restart)
    s.at(0.300, s.local, x=2)
    return s.finish()


def crash_before_start():
    """A crash at the instant of the call, before the exec process has run
    its first step: solo, then (batching on) a dispatched batch at the cap
    plus a request still waiting for the zero-delay flush."""
    s = Script(max_batch=4)
    s.local(x=0)
    s.host.crash()
    s.host.restart()
    s.local(x=1)

    def batched_round():
        s.host.enable_batching(max_batch=2, max_wait_s=0.004)
        s.local(x=2)
        s.local(x=3)
        s.local(x=4)
        s.host.crash()
        s.host.restart()
        s.local(x=5)

    s.at(0.200, batched_round)
    return s.finish()


def close_mid_batch():
    """``close()`` with a batch executing and requests pending behind it,
    on a pool lease (which detaches); a later call finds the host down."""
    s = Script(max_batch=4, pooled=True)
    s.host.enable_batching(max_batch=2, max_wait_s=0.004)
    s.local(x=0)
    s.local(x=1)
    s.sibling_local(x=2)
    s.at(0.010, s.local, x=3)
    s.at(0.010, s.remote, frame=4)
    s.at(0.030, s.host.close)
    s.at(0.040, s.local, x=5)
    s.at(0.040, s.sibling_local, x=6)
    return s.finish()


# -- (e) batching toggled mid-flight --------------------------------------------
def enable_batching_mid_flight():
    """Batching switched on while one solo call executes and another waits
    in the worker queue, then switched off again while a request is still
    pending batch formation."""
    s = Script(max_batch=4)
    s.local(x=0)
    s.local(x=1)
    s.at(0.010, s.host.enable_batching, max_batch=4, max_wait_s=0.004)
    s.at(0.012, s.local, x=2)
    s.at(0.014, s.remote, frame=3)
    s.at(0.016, s.local, x=4)
    s.at(0.500, s.local, x=5)
    s.at(0.510, s.local, x=6)         # pending behind x=5
    s.at(0.520, s.host.enable_batching, max_batch=1)
    s.at(0.530, s.local, x=7)         # dispatched solo, queues on the worker
    return s.finish()


# -- (f) a raising handler -------------------------------------------------------
def poisoned_solo():
    """A handler that raises in a batch of one runs exactly once; the
    worker is freed for the call queued behind it."""
    s = Script()
    s.local(poison=1)
    s.local(x=1)
    s.at(0.001, s.remote, poison=1, frame=2)
    record = s.finish()
    assert s.service.handle_calls == 3   # one per call, failing or not
    return record


def poisoned_in_batch():
    """One poisoned item in a formed batch fails alone: ``handle_batch``
    raises, the host re-runs the batch per item."""
    s = Script(max_batch=4)
    s.host.enable_batching(max_batch=4, max_wait_s=0.004)
    s.local(x=0)
    s.local(poison=1)
    s.local(x=2)
    return s.finish()


SCRIPTS = [
    remote_solo,
    batch_same_instant, batch_staggered, batch_lone_probes, batch_two_replicas,
    cache_solo, cache_batched,
    crash_solo_private, crash_solo_pooled, crash_batch_private,
    crash_batch_pooled, crash_during_probe, crash_before_start,
    close_mid_batch,
    enable_batching_mid_flight,
    poisoned_solo, poisoned_in_batch,
]


def run_scripts():
    # through JSON once, so tuples and int keys compare as the file has them
    return json.loads(json.dumps({fn.__name__: fn() for fn in SCRIPTS}))


def test_scripts_are_deterministic():
    assert run_scripts() == run_scripts()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda fn: fn.__name__)
def test_host_stream_matches_golden(script):
    actual = json.loads(json.dumps(script()))
    if UPDATE or not GOLDEN.exists():
        pytest.skip("golden is being (re)written by test_golden_is_current")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert script.__name__ in golden, "script missing from the golden"
    expected = golden[script.__name__]
    for key in expected:
        assert actual[key] == expected[key], (
            f"{script.__name__}: {key!r} moved off the golden")
    assert sorted(actual) == sorted(expected)


def test_golden_is_current():
    """The file holds exactly the scripts above (and is written here when
    asked to, or when it does not exist yet)."""
    if UPDATE or not GOLDEN.exists():
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(run_scripts(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        if not UPDATE:
            pytest.fail(f"{GOLDEN.name} did not exist; wrote it — review"
                        " and commit, then re-run")
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(fn.__name__ for fn in SCRIPTS)


def test_the_scripts_reach_what_the_committed_digests_do_not():
    """The point of the file: remote calls, formed batches (of one and of
    several), cache hits, crashes and drops all occur."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    hosts = [record["host"] for record in golden.values()]
    assert sum(h["remote_calls"] for h in hosts) >= 20
    assert sum(h["cache_hits"] for h in hosts) >= 4
    assert sum(h["dropped_in_flight"] for h in hosts) >= 10
    sizes = set()
    for h in hosts:
        sizes.update(h["batch_size_counts"])
    assert {"1", "2", "4"} <= sizes
    names = {span[1] for h in hosts for span in h["spans"]}
    assert {"service.queue", "service.batch_wait", "rpc.deserialize",
            "rpc.transfer", "cache.hit", "service.compute:probe"} <= names
