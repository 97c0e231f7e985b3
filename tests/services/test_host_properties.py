"""Service-call conservation: every admitted call resolves exactly once.

Random scripts drive one :class:`ServiceHost` — local and remote arrivals
(plain, frame-bearing, stale-ref and poisoned payloads) at colliding
instants, ``crash`` / ``restart`` / ``close``, ``add_replica`` /
``remove_replica``, batching switched on, off and resized mid-flight, on a
private worker ``Resource`` or on a ``ReplicaPool`` lease contended by a
sibling service — and at quiescence check the laws no single path may
break:

* every signal the host handed out resolved, once;
* ``local_calls + remote_calls == succeeded + failed``;
* no worker busy, nothing queued or pending batch formation, nothing left
  in ``_inflight``, every pool slot and CPU core returned.

A host counts the slots it holds itself (a pooled host shares its
``Resource`` with its sibling), so on private hosts one more law holds
between every two events: ``busy_workers``, the queued requests and
``utilization()`` equal the worker ``Resource``'s ``in_use``,
``queue_length`` and ``utilization()``, bit for bit, and every queued
request has the borrower's priority, so the queue is FIFO.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites
(default 200 -> 100 scripts, a few seconds; the CI ``audit`` job runs 10x).
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameStoreError, ServiceError
from repro.services import RemoteServiceStub, Service, ServiceHost

from .conftest import MiniHome, make_frame

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))

#: few enough instants that arrivals, toggles and crashes collide, spread
#: over a few service times (a call costs ~45 ms on the desktop)
INSTANTS = st.sampled_from([0.0, 0.001, 0.02, 0.045, 0.05, 0.1, 0.3])
PAYLOADS = st.sampled_from(["plain", "frame", "stale", "poison"])
ARRIVALS = st.tuples(st.sampled_from(["local", "remote", "sibling"]), PAYLOADS)
LIFECYCLE = st.tuples(
    st.sampled_from(["crash", "restart", "close", "add_replica",
                     "remove_replica"]), st.none())
BATCH_ARGS = st.tuples(st.sampled_from([4, 2, 1]),
                       st.sampled_from([0.004, 0.03, 0.0]))
BATCHING = st.tuples(st.just("enable_batching"), BATCH_ARGS)
#: mostly arrivals, so that crashes and toggles land on a busy host
STEPS = st.lists(
    st.tuples(INSTANTS, st.one_of(ARRIVALS, ARRIVALS, ARRIVALS, ARRIVALS,
                                  LIFECYCLE, BATCHING)),
    min_size=16, max_size=40)


class Fussy(Service):
    name = "fussy"
    reference_cost_s = 0.050
    max_batch = 4
    batch_marginal_cost_frac = 0.5
    cacheable = True

    def handle(self, payload, ctx):
        if payload.get("poison"):
            raise RuntimeError("poisoned payload")
        return sorted(payload)


class Harness:
    def __init__(self, pooled, replicas, cached, batching=None):
        self.home = MiniHome()
        self.kernel = self.home.kernel
        desktop = self.home.desktop
        self.pool = desktop.enable_replica_pool(slots=2) if pooled else None
        self.host = self._host(Fussy(), replicas)
        if cached:
            self.host.enable_result_cache()
        if batching is not None:
            self.lifecycle("enable_batching", batching)
        sibling = Fussy()
        sibling.name, sibling.default_port = "sibling", 7100
        self.sibling = self._host(sibling, 1)
        self.stub = RemoteServiceStub(
            self.kernel, self.home.transport, self.home.phone, self.host)
        self.resolutions = {}  # host-side signal -> times it resolved
        if not pooled:
            self.kernel.add_observer(self)

    def _host(self, service, replicas):
        host = ServiceHost(self.kernel, self.home.desktop, service,
                           self.home.transport, replicas=replicas)
        if self.pool is not None:
            host.attach_pool(self.pool)
        admit = host._admit

        def counted(*args, **kwargs):
            signal = admit(*args, **kwargs)
            self.resolutions[signal] = 0
            signal.wait(self._count, signal)
            return signal

        host._admit = counted
        return host

    def _count(self, signal, value, exc):
        self.resolutions[signal] += 1

    # a kernel observer: the state each event left, before the next runs
    def on_schedule(self, now, event):
        pass

    def on_execute(self, now, event):
        self.gauges_agree()

    def gauges_agree(self):
        """A private host's own gauges equal its Resource's, bit for bit."""
        for host in (self.host, self.sibling):
            workers = host.workers
            assert host.busy_workers == workers.in_use
            queued = host.queue_length - len(host._batch_pending)
            assert queued == workers.queue_length
            assert host.utilization().hex() == workers.utilization().hex()
            # a queue means every slot is held: each queued request is a
            # borrower's, so the private queue stays FIFO
            assert all(entry[0] == 1 for entry in workers._waiting)

    def arrive(self, kind, payload):
        store = (self.home.phone if kind == "remote"
                 else self.home.desktop).frame_store
        body = {"q": payload}
        if payload == "poison":
            body["poison"] = True
        elif payload in ("frame", "stale"):
            body["frame"] = store.put(make_frame())
            if payload == "stale":
                store.release(body["frame"])
        try:
            if kind == "remote":
                self.stub.call(body)
            else:
                (self.host if kind == "local" else self.sibling).call_local(body)
        except FrameStoreError:
            # the remote stub encodes on the caller's side: a stale ref
            # never leaves the phone
            assert kind == "remote" and payload == "stale"

    def lifecycle(self, op, arg):
        if op == "enable_batching":
            self.host.enable_batching(max_batch=arg[0], max_wait_s=arg[1])
            return
        try:
            getattr(self.host, op)()
        except ServiceError:
            assert op == "remove_replica"  # already at one replica

    def check(self):
        self.kernel.run()
        if self.pool is None:
            self.gauges_agree()
        assert all(count == 1 for count in self.resolutions.values())
        for host in (self.host, self.sibling):
            mine = [s for s in self.resolutions if s.name.startswith(
                host.service_name)]
            assert all(signal.resolved for signal in mine)
            assert host.local_calls + host.remote_calls == len(mine)
            assert host.busy_workers == 0
            assert host.queue_length == 0
            assert not host._inflight and not host._batch_pending
        if self.pool is not None:
            assert self.pool.slots.in_use == 0
            assert self.pool.backlog == 0
        assert self.home.desktop.cpu.cores.in_use == 0


@settings(max_examples=max(1, FUZZ_N // 2), derandomize=True, deadline=None)
@given(pooled=st.booleans(), replicas=st.integers(1, 2), cached=st.booleans(),
       batching=st.one_of(BATCH_ARGS, st.none()), steps=STEPS)
def test_every_admitted_call_resolves_exactly_once(pooled, replicas, cached,
                                                   batching, steps):
    harness = Harness(pooled, replicas, cached, batching)
    for when, (op, arg) in steps:
        if op in ("local", "remote", "sibling"):
            harness.kernel.schedule(when, harness.arrive, op, arg)
        else:
            harness.kernel.schedule(when, harness.lifecycle, op, arg)
    harness.check()


def test_pending_request_is_not_stranded_behind_a_sibling():
    """Batching on, pooled: the sibling holds both pool slots when the
    request arrives, nothing of the host's own is in flight, and no later
    arrival comes to rescue it. Only the host's own releases and arrivals
    pump its batcher, so with nothing of its own in flight the request
    goes to the pool's queue at once."""
    harness = Harness(pooled=True, replicas=1, cached=False,
                      batching=(4, 0.004))
    harness.kernel.schedule(0.0, harness.arrive, "sibling", "plain")
    harness.kernel.schedule(0.0, harness.arrive, "sibling", "frame")
    harness.kernel.schedule(0.02, harness.arrive, "local", "plain")
    harness.check()
