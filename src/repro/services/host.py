"""Service hosting: replicas, queueing, and the local vs remote call paths.

A :class:`ServiceHost` is the container (or native process) running one
service on one device. Its two entry points share one admission function
and one execution generator, in which a solo call is a batch of one:

* :meth:`call_local` — for co-located modules. Payload frame refs are
  resolved against the device's frame store at execution time: **zero
  serialization, zero copies** — the co-location benefit the paper measures.
* an RPC endpoint — for remote callers (the EdgeEye-style baseline).
  Arriving payloads carry encoded frames, whose decode cost is charged to
  this device's CPU before the service runs.

Requests queue on the replica pool, so a shared service saturates exactly
the way Table 2's two-pipeline column shows.

Failure semantics: :meth:`crash` models the service process dying — the RPC
endpoint unbinds (remote callers see delivery failures, which are retryable
and failover-able), in-flight calls are interrupted and failed, and the
worker pool is discarded wholesale. :meth:`restart` rebinds the endpoint
with a fresh pool. :meth:`close` is the orderly, idempotent teardown.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, NamedTuple

from ..devices.device import Device
from ..errors import FrameStoreError, Interrupt, ServiceError
from ..frames.payloads import decode_frames_inline, resolve_refs
from ..net.address import Address
from ..net.message import H_TRACE, Message
from ..net.rpc import RpcServer
from ..net.transport import Transport
from ..sim.events import Event
from ..sim.kernel import Kernel
from ..sim.process import Process
from ..sim.resources import Resource
from ..sim.signals import Signal
from ..trace.span import (
    CAT_COMPUTE,
    CAT_MARK,
    CAT_QUEUE,
    CAT_SERIALIZE,
    CAT_WIRE,
    SpanContext,
)
from .base import Service, ServiceCallContext
from .cache import MISS, ResultCache, payload_cache_key


class _Call(NamedTuple):
    """One admitted request on its way to a worker."""

    payload: Any  #: refs unresolved, frames that came off the wire decoded
    decode_cost: float  #: CPU seconds owed for that decode (0 for local)
    done: Signal
    key: str | None  #: result-cache key, None when uncacheable
    admitted_at: float
    trace: SpanContext | None

    def fail(self, why: str) -> None:
        if self.done.pending:
            self.done.fail(ServiceError(why))


#: After this many consecutive company-timer probes that dispatched solo,
#: the batcher stops waiting for company (lone requests go out at once)...
SOLO_PROBE_LIMIT = 4
#: ...and after this many immediate solo dispatches it probes again, in
#: case the workload has become batchable. Bounds the worst-case latency
#: waste on unbatchable traffic to a few ms per hundred requests.
SOLO_RETRY_AFTER = 64


class ServiceHost:
    """One service deployed on one device, with N replica workers."""

    def __init__(
        self,
        kernel: Kernel,
        device: Device,
        service: Service,
        transport: Transport,
        replicas: int = 1,
        native: bool = False,
        port: int | None = None,
    ) -> None:
        if replicas < 1:
            raise ServiceError("need at least one replica")
        self.kernel = kernel
        self.device = device
        self.service = service
        self.native = native
        self._replica_target = replicas
        self.workers = Resource(
            kernel, replicas, name=f"{device.name}.{service.name}.workers"
        )
        #: The device's shared :class:`~repro.services.pool.ReplicaPool`
        #: when pooled parallelism is on; ``workers`` is then a
        #: :class:`~repro.services.pool.PoolLease` instead of a private
        #: Resource (see :meth:`attach_pool`).
        self.pool: Any = None
        self.address = Address(device.name, port or service.default_port)
        self._rpc = RpcServer(kernel, transport, self.address, self._handle_remote)
        self._ctx = ServiceCallContext(
            device_name=device.name,
            frame_store=device.frame_store,
            rng=device.local_rng(f"service/{service.name}"),
            kernel=kernel,
        )
        #: In-flight calls: result signal -> executing process.
        self._inflight: dict[Signal, Process] = {}
        self.up = True
        self._closed = False
        # fast-path state (both off by default: the seed call path)
        self._cache: ResultCache | None = None
        self._batch_max = 1
        self._batch_wait_s = 0.0
        #: admitted but not yet dispatched: requests awaiting batch formation.
        self._batch_pending: list[_Call] = []
        #: the armed flush: a zero-delay coalescing flush, or (positive
        #: wait) a company *probe*.
        self._batch_timer: Event | None = None
        self._solo_streak = 0
        self._solo_immediate = 0
        # statistics
        self.local_calls = 0
        self.remote_calls = 0
        self.errors = 0
        self.crashes = 0
        self.dropped_in_flight = 0
        self.total_busy_s = 0.0
        self.total_wait_s = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batched_calls = 0
        #: dispatch-size histogram (only populated while batching is on).
        self.batch_size_counts: Counter[int] = Counter()
        #: the home's :class:`~repro.trace.recorder.TraceRecorder`, or
        #: ``None`` while tracing is off (set by ``enable_tracing``).
        self.tracer: Any = None

    @property
    def service_name(self) -> str:
        return self.service.name

    @property
    def replicas(self) -> int:
        return self.workers.capacity

    def attach_pool(self, pool: Any) -> None:
        """Switch this host to pool-based parallelism: its private worker
        Resource is replaced by a :class:`~repro.services.pool.PoolLease`
        on the device's shared pool, with the configured replica count as
        the initial share. Requires an idle host (no busy workers, no
        queued or batch-pending requests) so no grant straddles the swap.
        Idempotent for the same pool."""
        if self.pool is pool:
            return
        if self.pool is not None:
            raise ServiceError(
                f"{self.service_name}@{self.device.name} is already attached"
                " to a replica pool"
            )
        if pool.device_name != self.device.name:
            raise ServiceError(
                f"pool on {pool.device_name!r} cannot back"
                f" {self.service_name}@{self.device.name} — replica pools"
                " are device-local"
            )
        if (self.workers.in_use or self.workers.queue_length
                or self._batch_pending):
            raise ServiceError(
                f"attach_pool() requires an idle host;"
                f" {self.service_name}@{self.device.name} has"
                f" {self.workers.in_use} busy worker(s) and"
                f" {self.queue_length} queued request(s)"
            )
        self.pool = pool
        self.workers = pool.attach(self, share=self._replica_target)

    def add_replica(self, count: int = 1) -> None:
        """Horizontal scaling: add worker replicas (stateless, so trivial —
        the property the paper's design buys). On a pooled host this raises
        the service's *share* of the device pool."""
        self._replica_target += count
        self.workers.grow(count)

    def remove_replica(self, count: int = 1) -> None:
        """Scale back down toward one replica. Lazy: a busy worker finishes
        its current call before its slot disappears, so no in-flight
        request is dropped."""
        if count < 1:
            raise ServiceError("remove_replica() needs a positive count")
        if self._replica_target - count < 1:
            raise ServiceError("cannot scale below one replica")
        self._replica_target -= count
        self.workers.shrink(count)

    # -- fast path configuration -------------------------------------------------
    def enable_result_cache(
        self, max_entries: int = 512, ttl_s: float | None = None
    ) -> None:
        """Attach a result cache. Effective only for services that declare
        ``cacheable = True``; on them, a byte-identical repeated request is
        answered instantly with zero simulated CPU."""
        self._cache = ResultCache(max_entries=max_entries, ttl_s=ttl_s)

    def enable_batching(self, max_batch: int = 4, max_wait_s: float = 0.004) -> None:
        """Coalesce queued requests into batches of up to *max_batch*
        (bounded also by the service's own ``max_batch``), waiting at most
        *max_wait_s* for company. Requests arriving at an idle host still
        dispatch immediately — batching only engages under contention."""
        if max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ServiceError("max_wait_s must be >= 0")
        self._batch_max = max_batch
        self._batch_wait_s = max_wait_s

    def invalidate_cache(self) -> int:
        """Explicitly drop all cached results (e.g. after a model update);
        returns how many entries were removed."""
        if self._cache is None:
            return 0
        return self._cache.invalidate()

    @property
    def result_cache(self) -> ResultCache | None:
        return self._cache

    @property
    def batch_wait_s(self) -> float:
        """Worst-case extra latency the batcher may add (0 when off)."""
        if self._effective_max_batch() > 1:
            return self._batch_wait_s
        return 0.0

    def _effective_max_batch(self) -> int:
        return min(self._batch_max, self.service.max_batch)

    def _cache_lookup(self, payload: Any) -> tuple[str | None, Any]:
        """The request's cache key and what the cache holds under it:
        ``(None, MISS)`` when the service or the payload is uncacheable.
        Only keyed requests count toward the hit/miss stats."""
        if self._cache is None or not self.service.cacheable:
            return None, MISS
        key = payload_cache_key(
            self.service_name, payload, store=self.device.frame_store
        )
        if key is None:
            return None, MISS
        value = self._cache.lookup(key, self.kernel.now)
        if value is MISS:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return key, value

    # -- tracing -------------------------------------------------------------
    def _trace_span(self, trace: SpanContext | None, name: str, category: str,
                    start: float, end: float, **attrs: Any) -> None:
        """Record a server-side span under the caller's call context; a
        no-op whenever tracing is off or the call carried no context."""
        if self.tracer is None or trace is None:
            return
        self.tracer.record(
            name, category, parent=trace, start=start, end=end,
            device=self.device.name, actor=f"service:{self.service_name}",
            **attrs,
        )

    # -- call paths -----------------------------------------------------------
    def call_local(self, payload: Any, trace: SpanContext | None = None) -> Signal:
        """Co-located call: refs resolve in-place, nothing is serialized.

        With a result cache attached, a repeated payload returns an
        already-succeeded signal: no worker, no queueing, no simulated CPU.
        """
        return self._admit(payload, trace, off_wire=False)

    def _handle_remote(self, payload: Any, message: Message) -> Signal:
        """Remote call: a local call plus the frame decode, paid before the
        service sees the data."""
        trace = None
        if self.tracer is not None:
            trace = SpanContext.from_header(message.headers.get(H_TRACE))
            if message.sent_at is not None and message.delivered_at is not None:
                self._trace_span(
                    trace, "rpc.transfer", CAT_WIRE,
                    start=message.sent_at, end=message.delivered_at,
                    bytes=message.size_bytes,
                    src=message.src.device if message.src else "?",
                )
        return self._admit(payload, trace, off_wire=True)

    def _admit(self, payload: Any, trace: SpanContext | None,
               off_wire: bool) -> Signal:
        """The one way in, for both entry points: count the call, refuse it
        while down, answer it from the result cache, decode what came off
        the wire, then queue it for batch formation — or, on a host that
        does not batch, dispatch it at once as a batch of one."""
        if off_wire:
            self.remote_calls += 1
        else:
            self.local_calls += 1
        done = self.kernel.signal(name=f"{self.service_name}.call")
        if not self.up:  # remote: the crash raced a request already in flight
            self.errors += 1
            return done.fail(
                ServiceError(f"{self.service_name}@{self.device.name} is down")
            )
        # keyed over the payload as it arrived, so a repeated wire request
        # skips the decode as well as the service execution
        key, cached = self._cache_lookup(payload)
        if cached is not MISS:
            now = self.kernel.now
            self._trace_span(trace, "cache.hit", CAT_MARK, start=now, end=now)
            return done.succeed(cached)
        decode_cost = 0.0
        if off_wire:
            payload, decode_cost = decode_frames_inline(payload)
        call = _Call(payload, decode_cost, done, key, self.kernel.now, trace)
        if self._effective_max_batch() > 1:
            self._enqueue_batch(call)
        else:
            self._dispatch([call], formed=False)
        return done

    # -- execution ---------------------------------------------------------------
    def _dispatch(self, items: list[_Call], formed: bool) -> None:
        proc = self.kernel.process(
            self._run(items, formed), name=f"{self.service_name}.exec"
        )
        for call in items:
            self._inflight[call.done] = proc

    def _run(self, items: list[_Call], formed: bool):
        """Execute one dispatch on one worker; a solo call is a batch of
        one. *formed* (the batcher built this dispatch) picks the queue
        span's name and whether the dispatch-size statistics count it —
        nothing else differs by origin."""
        grant = None
        # failing alone needs company: a batch of one fails whole, on the
        # arms below, with its handler run exactly once
        isolate = len(items) > 1
        # by position in *items*: what each served item returned, and why
        # each item that failed alone did
        results: dict[int, Any] = {}
        failed: dict[int, Exception] = {}
        try:
            grant = yield self.workers.request()
            # availability is accurate again: further pending work may have
            # room on the remaining replicas
            self._pump_batches()
            started = self.kernel.now
            queue_span = "service.batch_wait" if formed else "service.queue"
            for call in items:
                self.total_wait_s += started - call.admitted_at
                if started > call.admitted_at:
                    self._trace_span(
                        call.trace, queue_span, CAT_QUEUE,
                        start=call.admitted_at, end=started,
                    )
            decode_cost = sum(call.decode_cost for call in items)
            if decode_cost > 0:
                yield self.device.cpu.execute_fixed(decode_cost)
                for call in items:
                    if call.decode_cost > 0:
                        self._trace_span(
                            call.trace, "rpc.deserialize", CAT_SERIALIZE,
                            start=started, end=self.kernel.now,
                        )
            resolved: dict[int, Any] = {}  # the payloads that run
            for index, call in enumerate(items):
                try:
                    resolved[index] = resolve_refs(
                        call.payload, self.device.frame_store
                    )
                except FrameStoreError as exc:  # a stale or foreign ref
                    if not isolate:
                        raise
                    failed[index] = exc
            payloads = list(resolved.values())
            compute_started = self.kernel.now
            cost = self.service.batch_compute_cost(payloads)
            if cost > 0:
                yield self.device.cpu.execute(cost)
            try:
                handled = self.service.handle_batch(payloads, self._ctx)
                if len(handled) != len(payloads):
                    raise ServiceError(
                        f"{self.service_name}.handle_batch returned"
                        f" {len(handled)} results for {len(payloads)} payloads"
                    )
                results.update(zip(resolved, handled))
            except Interrupt:
                raise
            except Exception:
                if not isolate:
                    raise
                # per-item fallback: rerun individually so one poisoned
                # payload fails alone instead of taking the batch down
                for index, payload in resolved.items():
                    try:
                        results[index] = self.service.handle(payload, self._ctx)
                    except Exception as exc:
                        failed[index] = exc
            batch_size = {"batch_size": len(items)} if formed else {}
            for index in resolved:
                self._trace_span(
                    items[index].trace, f"service.compute:{self.service_name}",
                    CAT_COMPUTE, start=compute_started, end=self.kernel.now,
                    **batch_size,
                )
            self.total_busy_s += self.kernel.now - started
            if formed:
                self.batched_calls += 1
                self.batch_size_counts[len(items)] += 1
        except Interrupt as stop:
            for call in items:
                call.fail(f"{self.service_name}@{self.device.name}"
                          f" dropped call: {stop.cause}")
            return
        except Exception as exc:
            self.errors += len(items)
            for call in items:
                call.fail(f"{self.service_name} failed: {exc}")
            return
        finally:
            for call in items:
                self._inflight.pop(call.done, None)
            # a grant from a discarded pre-crash worker pool dies with that
            # pool; a pooled lease keeps owning pre-crash grants so the
            # shared slot always comes back
            if grant is not None and self.workers.owns(grant):
                self.workers.release(grant)
            self._pump_batches()
        for index, call in enumerate(items):
            if index in failed:
                self.errors += 1
                call.fail(f"{self.service_name} failed: {failed[index]}")
                continue
            if call.key is not None and self._cache is not None:
                self._cache.store(call.key, results[index], self.kernel.now)
            if call.done.pending:
                call.done.succeed(results[index])

    # -- batch formation ----------------------------------------------------------
    # Requests never sit in the worker resource queue on the batch path:
    # while all workers are busy they accumulate in ``_batch_pending``
    # (free batch formation — they would have queued anyway), and a batch
    # dispatches only when a worker is actually free. Three dispatch
    # triggers:
    #   * a zero-delay flush scheduled on arrival at a free host — it runs
    #     after the current event cascade, so requests issued at the same
    #     simulated instant (e.g. two pipelines unblocked by one completed
    #     batch) coalesce with NO added simulated latency;
    #   * the pending count reaching the effective max batch;
    #   * the ``max_wait_s`` company timer, armed when a worker frees up
    #     and finds only a lone pending request — the one bounded wait that
    #     lets out-of-phase callers fall into a shared batch rhythm.

    def _worker_free(self) -> bool:
        return self.workers.available > 0 and self.workers.queue_length == 0

    def _enqueue_batch(self, call: _Call) -> None:
        self._batch_pending.append(call)
        if self._worker_free():
            if len(self._batch_pending) >= self._effective_max_batch():
                self._dispatch_pending()
            elif self._batch_timer is None:
                self._schedule_flush(0.0)  # coalesce same-instant arrivals

    def _schedule_flush(self, delay: float) -> None:
        self._batch_timer = self.kernel.schedule(
            delay, self._flush_timer, delay > 0
        )

    def _flush_timer(self, probed: bool) -> None:
        self._batch_timer = None
        if self._batch_pending and self._worker_free():
            self._dispatch_pending(probed=probed)
        # all workers busy: keep accumulating; the next release pumps

    def _dispatch_pending(self, probed: bool = False) -> None:
        if self._batch_timer is not None:
            self.kernel.cancel(self._batch_timer)
            self._batch_timer = None
        limit = self._effective_max_batch()
        items = self._batch_pending[:limit]
        del self._batch_pending[:limit]
        if len(items) >= 2:
            # company found: the workload batches, keep probing for it
            self._solo_streak = 0
            self._solo_immediate = 0
        elif probed:
            self._solo_streak += 1
        self._dispatch(items, formed=True)

    def _pump_batches(self) -> None:
        """On a worker state change: dispatch pending work or arm the
        company timer for a lone request."""
        if not self._batch_pending or not self._worker_free():
            return
        if len(self._batch_pending) >= 2 or self._batch_wait_s == 0:
            self._dispatch_pending()
            return
        if self._solo_streak >= SOLO_PROBE_LIMIT:
            # recent probes all went out alone — stop taxing lone requests,
            # but probe again occasionally in case the load shape changed
            self._solo_immediate += 1
            if self._solo_immediate >= SOLO_RETRY_AFTER:
                self._solo_streak = 0
                self._solo_immediate = 0
            self._dispatch_pending()
        elif self._batch_timer is None:
            # a lone request gets one bounded window for company before
            # going out solo
            self._schedule_flush(self._batch_wait_s)

    # -- failure lifecycle -------------------------------------------------------
    def crash(self) -> None:
        """The service process dies: endpoint unbound, in-flight calls
        dropped, worker pool discarded. Idempotent."""
        if not self.up:
            return
        self.crashes += 1
        self._go_down("crashed")
        # conservative: a restarted process may come back with a different
        # model revision, so cached results do not survive the crash
        self.invalidate_cache()

    def restart(self) -> None:
        """Bring a crashed host back: rebind the RPC endpoint. Idempotent;
        a closed host stays closed."""
        if self.up or self._closed:
            return
        self.up = True
        self._rpc.open()

    def close(self) -> None:
        """Orderly, idempotent teardown: unbind and fail anything pending."""
        if self._closed:
            return
        self._closed = True
        self._go_down("closed")
        if self.pool is not None:
            self.pool.detach(self.service_name)

    def _go_down(self, how: str) -> None:
        """Unbind the endpoint, fail every admitted call not yet resolved —
        the dispatched ones (their process is interrupted), then the ones
        still waiting for batch formation (no process to interrupt) — and
        let go of the workers."""
        self.up = False
        self._rpc.close()
        reason = f"{self.service_name}@{self.device.name} {how}"
        inflight = list(self._inflight.items())
        self._inflight.clear()
        self.dropped_in_flight += len(inflight) + len(self._batch_pending)
        for done, proc in inflight:
            proc.interrupt(reason)
            if done.pending:
                done.fail(ServiceError(f"call dropped: {reason}"))
        if self._batch_timer is not None:
            self.kernel.cancel(self._batch_timer)
            self._batch_timer = None
        pending, self._batch_pending = self._batch_pending, []
        for call in pending:
            call.fail(f"call dropped: {reason}")
        if self.pool is not None:
            # the pool is shared — never discarded. Not-yet-granted requests
            # are revoked (their slots bounce back on grant); grants already
            # held stay owned so the interrupted calls' cleanup releases them.
            self.workers.revoke_pending()
        else:
            self.workers = Resource(
                self.kernel, self._replica_target,
                name=f"{self.device.name}.{self.service_name}.workers",
            )

    # -- introspection ---------------------------------------------------------
    @property
    def queue_length(self) -> int:
        # requests awaiting batch formation are queued load too (empty
        # unless batching is enabled)
        return self.workers.queue_length + len(self._batch_pending)

    @property
    def busy_workers(self) -> int:
        return self.workers.in_use

    def utilization(self) -> float:
        return self.workers.utilization()

    def cache_hit_rate(self) -> float:
        """Fraction of cacheable requests answered from the result cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def avg_batch_size(self) -> float:
        """Observed mean dispatch size (1.0 before any batched dispatch)."""
        dispatches = sum(self.batch_size_counts.values())
        if dispatches == 0:
            return 1.0
        total_items = sum(n * c for n, c in self.batch_size_counts.items())
        return total_items / dispatches

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "native" if self.native else "container"
        state = "up" if self.up else "down"
        return (
            f"<ServiceHost {self.service_name}@{self.device.name} ({kind},"
            f" {self.replicas} replicas, {state})>"
        )
