"""Service stubs: what a module's ``call_service`` actually invokes.

"VideoPipe prepares the required service stubs on each device and connects
different components together" (§3.1). A stub hides whether the service is
co-located (direct in-process dispatch, refs stay refs) or remote (frames
are encoded, shipped by RPC, decoded over there). The two paths are the
exact contrast the evaluation measures.
"""

from __future__ import annotations

from typing import Any, Callable

from ..devices.device import Device
from ..errors import NetworkError, RpcError, ServiceError
from ..frames.payloads import encode_refs_for_wire
from ..net.message import H_TRACE
from ..net.resilience import RetryPolicy
from ..net.rpc import RpcClient
from ..net.transport import Transport
from ..sim.kernel import Kernel
from ..sim.signals import SUCCEEDED, Signal
from .host import ServiceHost
from .registry import ServiceRegistry

#: Default retry schedule for remote service calls: three attempts with
#: 50 ms → 100 ms backoff (±25% jitter). Short, because the failover path
#: (re-selecting a live replica) is the real recovery mechanism; retries
#: only ride out sub-second blips.
DEFAULT_SERVICE_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.05, multiplier=2.0, max_delay_s=1.0,
    jitter=0.25,
)


def derive_service_timeout(
    host: ServiceHost,
    caller_device: Device,
    transport: Transport,
    payload_bytes: int = 150_000,
) -> float:
    """A sane default timeout for calling *host* from *caller_device*.

    Budget = generous multiples of the expected compute time and the
    round-trip transfer of a typical frame-sized payload. Deliberately loose
    (it is a hang detector, not an SLO): queueing behind other requests must
    not trip it.
    """
    from .balancer import expected_service_time

    compute = expected_service_time(host)
    try:
        one_way = transport.topology.expected_delay(
            caller_device.name, host.device.name, payload_bytes
        )
    except NetworkError:
        one_way = 0.25  # route currently unresolvable; assume a slow path
    # a batching host may hold a request for up to batch_wait_s before
    # dispatch; budget generously for it (0 when batching is off)
    return max(2.0, 30.0 * compute + 20.0 * one_way + 1.0
               + 10.0 * host.batch_wait_s)


class ServiceStub:
    """A caller-side handle to one named service."""

    def __init__(self, service_name: str) -> None:
        self.service_name = service_name
        self.calls = 0
        #: Seconds the most recent call spent materializing the request
        #: before dispatch (frame JPEG encode for remote calls; 0 when the
        #: payload travels by reference). Used by Fig. 6's "load frame" bar.
        self.last_prepare_s = 0.0

    @property
    def is_local(self) -> bool:
        raise NotImplementedError

    def call(self, payload: Any, trace: Any = None) -> Signal:
        """Invoke the service; the signal resolves with the result.

        *trace* is the caller's trace context for this call, in its
        ``H_TRACE`` header form, or ``None`` when tracing is off; the stub
        and the callee carry it unread to the host's observer, which
        parents its queue/compute spans to it.
        """
        raise NotImplementedError


class LocalServiceStub(ServiceStub):
    """Direct dispatch into a co-located host: the VideoPipe fast path."""

    def __init__(self, host: ServiceHost) -> None:
        super().__init__(host.service_name)
        self.host = host

    @property
    def is_local(self) -> bool:
        return True

    def call(self, payload: Any, trace: Any = None) -> Signal:
        self.calls += 1
        return self.host.call_local(payload, trace=trace)


#: Reference CPU seconds to marshal one remote API request or reply (JSON /
#: HTTP framing on the caller). The paper's motivation (§1): service-
#: oriented remote calls "incur significant overhead in terms of delays in
#: data transfer between the caller and the service" — this is the
#: marshaling half of that overhead; the wire transfer is the other half.
API_MARSHAL_S = 0.001


class RemoteServiceStub(ServiceStub):
    """RPC dispatch to a host on another device: the baseline's only path.

    Frame refs in the payload are materialized and JPEG-encoded before the
    request leaves (encode cost charged to the calling device's CPU), the
    caller pays API marshaling on both the request and the reply, and the
    request pays the network both ways.

    Resilience: calls time out (``timeout_s``; derived from the link/compute
    budget when not given), transport-level failures are retried by the
    underlying :class:`~repro.net.rpc.RpcClient` with backoff + jitter, and
    when a *registry* is provided the stub **fails over** — re-resolving the
    service to a live replica on another device when the dialed host stays
    unreachable.
    """

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        caller_device: Device,
        host: ServiceHost,
        timeout_s: float | None = None,
        registry: ServiceRegistry | None = None,
        retry: RetryPolicy | None = DEFAULT_SERVICE_RETRY,
    ) -> None:
        super().__init__(host.service_name)
        self.kernel = kernel
        self.transport = transport
        self.caller_device = caller_device
        self.target_address = host.address
        self.registry = registry
        self._derive_timeout = timeout_s is None
        self.timeout_s = (
            derive_service_timeout(host, caller_device, transport)
            if timeout_s is None else timeout_s
        )
        self._client = RpcClient(
            kernel, transport, caller_device.name,
            retry=retry,
            rng=caller_device.local_rng(f"rpc/{host.service_name}"),
        )
        self.frames_shipped = 0
        self.failovers = 0

    @property
    def is_local(self) -> bool:
        return False

    def call(self, payload: Any, trace: Any = None) -> Signal:
        self.calls += 1
        wire_payload, encode_cost, shipped = encode_refs_for_wire(
            payload, self.caller_device.frame_store, release=False
        )
        self.frames_shipped += shipped
        return self.kernel.process(
            self._call(wire_payload, encode_cost, trace),
            name=f"remote-call.{self.service_name}",
        ).done

    def _call(self, wire_payload: Any, encode_cost: float, trace: Any = None):
        headers = {H_TRACE: trace} if trace is not None else None
        try:
            started = self.kernel.now
            cpu = self.caller_device.cpu
            if encode_cost > 0:
                yield self._job(cpu.execute_fixed, encode_cost)
            yield self._job(cpu.execute, API_MARSHAL_S)
            self.last_prepare_s = self.kernel.now - started
            tried: set[str] = set()
            while True:
                try:
                    result = yield self._client.call(
                        self.target_address, wire_payload,
                        timeout=self.timeout_s, headers=headers,
                        # the derived timeout is the whole call's budget:
                        # retries must not stretch it to attempts x timeout
                        deadline_s=self.timeout_s,
                    )
                    break
                except NetworkError as exc:
                    if isinstance(exc, RpcError) and exc.remote:
                        raise  # the handler ran and failed; not our problem
                    tried.add(self.target_address.device)
                    fallback = self._failover_target(tried)
                    if fallback is None:
                        raise
                    self.failovers += 1
                    self.target_address = fallback.address
                    if self._derive_timeout:
                        self.timeout_s = derive_service_timeout(
                            fallback, self.caller_device, self.transport
                        )
            yield self._job(cpu.execute, API_MARSHAL_S)  # reply unmarshal
        except ServiceError:
            raise
        except Exception as exc:
            # keep the transport-level cause reachable: the module context
            # distinguishes breaker rejections (CircuitOpenError) from other
            # failures when counting service_rejections
            raise ServiceError(
                f"{self.service_name} remote call failed: {exc}"
            ) from exc
        return result

    def _job(self, execute: Callable[..., None], seconds: float) -> Signal:
        """A CPU job this generator can yield on: a signal of its own, which
        the job's continuation resolves in the job's timer event."""
        job = Signal(self.kernel, "remote-call.cpu")
        execute(seconds, job._settle, SUCCEEDED)
        return job

    def _failover_target(self, tried: set[str]) -> ServiceHost | None:
        """A live replica on a device not yet tried, or None."""
        if self.registry is None:
            return None
        from .balancer import select_host

        try:
            return select_host(
                self.registry, self.service_name, exclude_devices=tried
            )
        except ServiceError:
            return None


def make_stub(
    kernel: Kernel,
    transport: Transport,
    registry: ServiceRegistry,
    caller_device: Device,
    service_name: str,
    prefer_local: bool = True,
    timeout_s: float | None = None,
) -> ServiceStub:
    """Build the right stub for *caller_device*: local when the service is
    co-located (and preferred); otherwise a remote stub dialing the fastest
    live replica (see :func:`repro.services.balancer.select_host`).
    Remote stubs carry the registry so they can fail over to a surviving
    replica; ``timeout_s=None`` derives the timeout from the link/compute
    budget (see :func:`derive_service_timeout`)."""
    from .balancer import select_host

    if prefer_local:
        host = registry.host_on(service_name, caller_device.name)
        if host is not None and host.up:
            return LocalServiceStub(host)
    host = select_host(registry, service_name)
    if host.device.name == caller_device.name and prefer_local:
        return LocalServiceStub(host)
    return RemoteServiceStub(
        kernel, transport, caller_device, host,
        timeout_s=timeout_s, registry=registry,
    )
