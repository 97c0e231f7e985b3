"""Request/reply RPC over the message transport.

Modules use this path when the service they call lives on a *different*
device — the remote-API-call pattern of the EdgeEye-style baseline. The
client correlates replies by request id on a per-client reply address; the
server runs its handler and sends the result (or a remote error) back.

Resilience (§7 "edge devices fail"): every call carries a default timeout
(:data:`DEFAULT_TIMEOUT_S`), its timer is cancelled the moment the reply
arrives so long runs don't accumulate dead kernel events, and a client can
be configured with a :class:`~repro.net.resilience.RetryPolicy` (capped
exponential backoff + jitter) and a per-target
:class:`~repro.net.resilience.CircuitBreaker` with half-open probing.
Transport-level failures (delivery errors, link partitions, timeouts) are
retryable; *remote* errors — the handler ran and raised — are not, and they
count as proof of liveness for the breaker.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

import numpy as np

from ..errors import CircuitOpenError, NetworkError, RpcError
from ..sim.events import Event
from ..sim.kernel import Kernel
from ..sim.signals import Signal
from .address import Address
from .message import KIND_REPLY, KIND_REQUEST, Message
from .resilience import CircuitBreaker, CircuitBreakerPolicy, RetryPolicy
from .transport import Transport

#: Header keys used by the RPC protocol.
H_REQUEST_ID = "rpc_id"
H_REPLY_TO = "reply_to"
H_ERROR = "rpc_error"

#: Safety-net timeout applied when a call gives no explicit one. Generous on
#: purpose: it exists so a dead endpoint cannot hang a caller forever, not to
#: police slow services (per-call budgets belong to the caller).
DEFAULT_TIMEOUT_S = 30.0

#: Default per-target breaker for clients that don't override it.
DEFAULT_BREAKER = CircuitBreakerPolicy(failure_threshold=5, reset_timeout_s=5.0)

_UNSET: Any = object()


class RpcClient:
    """Issues requests from one device; owns an ephemeral reply address.

    Args:
        kernel, transport, device: as before.
        default_timeout_s: timeout applied when :meth:`call` is not given
            one explicitly; ``None`` disables the safety net.
        retry: default :class:`RetryPolicy` for calls (``None`` = single
            attempt). Only transport-level failures are retried.
        breaker: per-target circuit-breaker policy; ``None`` disables
            circuit breaking for this client.
        rng: RNG used for backoff jitter (``None`` = jitter off).
    """

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        device: str,
        *,
        default_timeout_s: float | None = DEFAULT_TIMEOUT_S,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreakerPolicy | None = DEFAULT_BREAKER,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.device = device
        self.default_timeout_s = default_timeout_s
        self.retry = retry
        self.breaker_policy = breaker
        self._rng = rng
        self.reply_address = Address(device, transport.ephemeral_port(device))
        self._request_ids = itertools.count(1)
        self._pending: dict[int, Signal] = {}
        self._timers: dict[int, Event] = {}
        self._breakers: dict[Address, CircuitBreaker] = {}
        self._closed = False
        transport.bind(self.reply_address, self._on_reply)
        transport.rpc_clients.append(self)
        # statistics
        self.calls_sent = 0
        self.calls_failed = 0
        self.retries = 0
        self.retries_abandoned = 0
        self.timeouts = 0
        self.late_replies = 0

    @property
    def pending_count(self) -> int:
        """Requests awaiting a reply or timeout. Every request arms a
        timeout timer (when the client has one), so at quiesce this must be
        zero — the invariant auditor's ``rpc-quiesce`` law checks it."""
        return len(self._pending)

    # -- public API -----------------------------------------------------------
    def call(
        self,
        target: Address,
        payload: Any,
        timeout: float | None = _UNSET,
        retry: RetryPolicy | None = _UNSET,
        headers: dict[str, Any] | None = None,
        deadline_s: float | None = None,
    ) -> Signal:
        """Send *payload* to *target*; the returned signal resolves with the
        reply payload, or fails with :class:`~repro.errors.RpcError` on a
        remote error, timeout, or (after any retries) delivery failure.

        ``timeout``/``retry`` default to the client-wide policies; pass
        ``None`` explicitly to disable either for one call. ``timeout`` is
        **per attempt**: each retry re-arms it. *headers* are extra request
        headers (e.g. a trace context) merged into every attempt, outside
        the charged envelope.

        ``deadline_s``, when given, is the overall budget for the whole
        call — retries never outlive it. Each retry attempt's own timer is
        capped at the budget remaining, and a retry whose backoff delay
        would start it at or past the deadline is abandoned instead of
        scheduled (``retries_abandoned`` counts those). Service stubs pass
        their derived service timeout here so a flaky link cannot stretch
        one logical call to ``attempts x timeout`` plus backoff.
        """
        timeout_s = self.default_timeout_s if timeout is _UNSET else timeout
        policy = self.retry if retry is _UNSET else retry
        deadline = None if deadline_s is None else self.kernel.now + deadline_s
        done = self.kernel.signal(name=f"rpc-call:{target.device}:{target.port}")
        self._start_attempt(target, payload, timeout_s, policy, done, 1,
                            headers=headers, deadline=deadline)
        return done

    def breaker_for(self, target: Address) -> CircuitBreaker | None:
        """The (lazily created) breaker guarding *target*; None if disabled."""
        if self.breaker_policy is None:
            return None
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_policy, name=str(target))
            self._breakers[target] = breaker
        return breaker

    @property
    def circuit_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    @property
    def circuit_rejections(self) -> int:
        return sum(b.rejections for b in self._breakers.values())

    def close(self) -> None:
        """Idempotent teardown: unbind the reply address and fail every
        in-flight request (cancelling their timeout timers)."""
        if self._closed:
            return
        self._closed = True
        self.transport.unbind(self.reply_address)
        self.transport.rpc_clients.remove(self)
        for request_id in list(self._pending):
            result = self._settle(request_id)
            if result is not None and result.pending:
                result.fail(RpcError("rpc client closed"))

    # -- attempt machinery -----------------------------------------------------
    def _start_attempt(
        self,
        target: Address,
        payload: Any,
        timeout_s: float | None,
        policy: RetryPolicy | None,
        done: Signal,
        attempt: int,
        headers: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> None:
        if not done.pending:
            return
        if self._closed:
            done.fail(RpcError("rpc client closed"))
            return
        breaker = self.breaker_for(target)
        if breaker is not None and not breaker.allow(self.kernel.now):
            self.calls_failed += 1
            done.fail(CircuitOpenError(
                f"circuit open for {target} after"
                f" {breaker.consecutive_failures} consecutive failures"
            ))
            return
        attempt_timeout = timeout_s
        if deadline is not None:
            # a retry's timer is capped at the budget left on the original
            # call, so the overall call never outlives its deadline
            attempt_timeout = max(1e-9, deadline - self.kernel.now)
            if timeout_s is not None:
                attempt_timeout = min(timeout_s, attempt_timeout)
        result = self._attempt(target, payload, attempt_timeout, headers)
        result.wait(
            lambda value, exc: self._on_attempt_done(
                target, payload, timeout_s, policy, done, attempt, value, exc,
                headers, deadline,
            )
        )

    def _on_attempt_done(
        self,
        target: Address,
        payload: Any,
        timeout_s: float | None,
        policy: RetryPolicy | None,
        done: Signal,
        attempt: int,
        value: Any,
        exc: BaseException | None,
        headers: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> None:
        if not done.pending:
            return
        breaker = self.breaker_for(target)
        if exc is None:
            if breaker is not None:
                breaker.record_success()
            done.succeed(value)
            return
        retryable = self._is_retryable(exc)
        if breaker is not None:
            if retryable:
                breaker.record_failure(self.kernel.now)
            else:
                breaker.record_success()  # a remote error proves liveness
        max_attempts = policy.max_attempts if policy is not None else 1
        if retryable and not self._closed and attempt < max_attempts:
            delay = policy.backoff_s(attempt, self._rng)
            if deadline is not None and not policy.deadline_allows(
                delay, self.kernel.now, deadline
            ):
                # the next attempt could not complete before the caller's
                # deadline — give up now instead of amplifying overload
                self.retries_abandoned += 1
            else:
                self.retries += 1
                self.kernel.schedule(
                    delay, self._start_attempt,
                    target, payload, timeout_s, policy, done, attempt + 1,
                    headers, deadline,
                )
                return
        self.calls_failed += 1
        done.fail(exc)

    @staticmethod
    def _is_retryable(exc: BaseException) -> bool:
        if isinstance(exc, RpcError) and exc.remote:
            return False  # the handler ran and raised; retrying won't help
        return isinstance(exc, NetworkError)

    # -- single attempt --------------------------------------------------------
    def _attempt(self, target: Address, payload: Any, timeout_s: float | None,
                 headers: dict[str, Any] | None = None) -> Signal:
        request_id = next(self._request_ids)
        result = self.kernel.signal(name=f"rpc#{request_id}")
        self._pending[request_id] = result
        message = Message(
            kind=KIND_REQUEST,
            dst=target,
            payload=payload,
            src=Address(self.device, self.reply_address.port),
            headers={H_REQUEST_ID: request_id, H_REPLY_TO: str(self.reply_address)},
        )
        if headers:
            # merged post-construction: caller metadata (trace contexts)
            # rides outside the charged envelope — see message.H_TRACE
            message.headers.update(headers)
        self.calls_sent += 1
        sent = self.transport.send(message)
        sent.wait(lambda _v, exc: self._on_send_failure(request_id, exc))
        if timeout_s is not None:
            self._timers[request_id] = self.kernel.schedule(
                timeout_s, self._on_timeout, request_id
            )
        return result

    def _settle(self, request_id: int) -> Signal | None:
        """Drop a request's bookkeeping; cancels its timeout timer so dead
        events don't linger in (and stretch) the kernel queue."""
        result = self._pending.pop(request_id, None)
        timer = self._timers.pop(request_id, None)
        if timer is not None:
            self.kernel.cancel(timer)
        return result

    def _on_send_failure(self, request_id: int, exc: BaseException | None) -> None:
        if exc is None:
            return
        result = self._settle(request_id)
        if result is not None and result.pending:
            result.fail(RpcError(f"request delivery failed: {exc}"))

    def _on_timeout(self, request_id: int) -> None:
        self._timers.pop(request_id, None)
        result = self._pending.pop(request_id, None)
        if result is not None and result.pending:
            self.timeouts += 1
            result.fail(RpcError(f"rpc request #{request_id} timed out"))

    def _on_reply(self, message: Message) -> None:
        request_id = message.headers.get(H_REQUEST_ID)
        result = self._settle(request_id)
        if result is None or not result.pending:
            self.late_replies += 1
            return  # late reply after timeout: discard
        error = message.headers.get(H_ERROR)
        if error is not None:
            result.fail(RpcError(str(error), remote=True))
        else:
            result.succeed(message.payload)


#: Server handlers receive (payload, message) and either return a plain
#: value, return a Signal that resolves with the value, or raise.
RpcHandler = Callable[[Any, Message], Any]


class RpcServer:
    """Binds an address and answers requests with a handler's result."""

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        address: Address,
        handler: RpcHandler,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.address = address
        self.handler = handler
        self.requests_served = 0
        self.requests_failed = 0
        transport.bind(address, self._on_request)

    def open(self) -> None:
        """(Re)bind the endpoint — the server half of a service restart.
        A no-op if the address is already bound."""
        if not self.transport.is_bound(self.address):
            self.transport.bind(self.address, self._on_request)

    def _on_request(self, message: Message) -> None:
        try:
            result = self.handler(message.payload, message)
        except Exception as exc:  # report handler crashes to the caller
            self._send_error(message, exc)
            return
        if isinstance(result, Signal):
            result.wait(lambda value, exc: self._on_async_result(message, value, exc))
        else:
            self._send_reply(message, result)

    def _on_async_result(self, request: Message, value: Any,
                         exc: BaseException | None) -> None:
        if exc is not None:
            self._send_error(request, exc)
        else:
            self._send_reply(request, value)

    def _send_reply(self, request: Message, value: Any) -> None:
        self.requests_served += 1
        self.transport.send(self._reply_message(request, value, error=None))

    def _send_error(self, request: Message, exc: BaseException) -> None:
        self.requests_failed += 1
        self.transport.send(
            self._reply_message(request, None, error=f"{type(exc).__name__}: {exc}")
        )

    def _reply_message(self, request: Message, value: Any, error: str | None) -> Message:
        headers: dict[str, Any] = {H_REQUEST_ID: request.headers.get(H_REQUEST_ID)}
        if error is not None:
            headers[H_ERROR] = error
        return Message(
            kind=KIND_REPLY,
            dst=request.reply_to(),
            payload=value,
            src=self.address,
            headers=headers,
        )

    def close(self) -> None:
        self.transport.unbind(self.address)
