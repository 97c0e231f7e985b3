"""The stateless service abstraction (§2.2).

"The main video analytics are performed by stateless services accessible to
modules. … These services all receive needed data as input so they do not
require saving state. This allows the services to be shared among different
applications and also allows for horizontal scaling."

A :class:`Service` is a pure request handler plus a compute-cost model. The
host (:mod:`repro.services.host`) owns replicas, queueing, CPU charging and
the local/remote call paths; the service itself never sees any of that.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import ServiceError
from ..frames.framestore import FrameStore
from ..sim.kernel import Kernel


class ServiceCallContext:
    """What a service may touch during one call: the *local* frame store
    (reference-id resolution), a deterministic RNG, and the clock. Nothing
    else — that is the statelessness contract.

    *rng* is the stream, or the call that builds it on the first read of
    :attr:`rng`: most services never draw, and seeding one costs tens of
    µs."""

    __slots__ = ("device_name", "frame_store", "kernel", "_rng")

    def __init__(
        self,
        device_name: str,
        frame_store: FrameStore,
        rng: np.random.Generator | Callable[[], np.random.Generator],
        kernel: Kernel,
    ) -> None:
        self.device_name = device_name
        self.frame_store = frame_store
        self._rng = rng
        self.kernel = kernel

    @property
    def rng(self) -> np.random.Generator:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return self._rng

    @property
    def now(self) -> float:
        """Current simulated time (for output timestamping only)."""
        return self.kernel.now


class Service:
    """Base class for stateless framewise services.

    Subclasses set :attr:`name` and :attr:`reference_cost_s` and implement
    :meth:`handle`. Handlers must be pure with respect to the service
    instance: all state arrives in the payload (the test suite enforces
    this by comparing instance dicts across calls).
    """

    #: Registry name modules use in ``call_service``.
    name = "service"
    #: Service code version, recorded in per-frame lineage (which module
    #: and service versions touched each frame — ``docs/LIVEOPS.md``).
    version = "v1"
    #: Compute time on the reference desktop for one call.
    reference_cost_s = 0.010
    #: Default port the service binds when hosted (offset per replica).
    default_port = 7000
    #: A pure function of its payload: byte-identical requests may be
    #: answered from a host-side result cache without running the handler.
    #: Services with side effects (rendering a display, driving an IoT
    #: device) must leave this off.
    cacheable = False
    #: Largest batch :meth:`handle_batch` accepts; 1 means the service only
    #: processes requests one at a time (hosts never batch it).
    max_batch = 1
    #: Marginal cost of each additional item in a batch, as a fraction of
    #: its solo cost. 1.0 = no amortization (a batch costs the exact sum of
    #: its items); a GPU-style service with heavy per-call setup sets this
    #: well below 1.
    batch_marginal_cost_frac = 1.0

    def handle(self, payload: Any, ctx: ServiceCallContext) -> Any:
        """Process one request; must not retain state on ``self``."""
        raise NotImplementedError

    def compute_cost(self, payload: Any) -> float:
        """Reference compute seconds for this payload (default: constant)."""
        return self.reference_cost_s

    # -- batching protocol ------------------------------------------------------
    def handle_batch(self, payloads: list[Any], ctx: ServiceCallContext) -> list[Any]:
        """Process several requests in one invocation, returning one result
        per payload in order. Default: loop :meth:`handle` (correct for any
        service; the win comes from :meth:`batch_compute_cost`)."""
        return [self.handle(payload, ctx) for payload in payloads]

    def batch_compute_cost(self, payloads: list[Any]) -> float:
        """Reference compute seconds for one batched invocation.

        The first item pays full price; each further item pays
        ``batch_marginal_cost_frac`` of its solo cost — the shared per-call
        overhead (model load, data staging) is paid once.
        """
        if not payloads:
            return 0.0
        costs = [self.compute_cost(p) for p in payloads]
        return costs[0] + self.batch_marginal_cost_frac * sum(costs[1:])

    def amortized_item_cost_s(self, batch_size: float = 1.0) -> float:
        """Expected per-item reference cost at a given mean batch size
        (used by the balancer's expected-service-time estimate)."""
        n = min(max(batch_size, 1.0), float(self.max_batch))
        frac = self.batch_marginal_cost_frac
        return self.reference_cost_s * (1.0 + frac * (n - 1.0)) / n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Service {self.name}>"


class FunctionService(Service):
    """Wrap a plain function as a service (testing and custom pipelines)."""

    def __init__(self, name: str, fn, reference_cost_s: float = 0.010,
                 default_port: int = 7900) -> None:
        if not callable(fn):
            raise ServiceError("FunctionService requires a callable")
        self.name = name
        self._fn = fn
        self.reference_cost_s = reference_cost_s
        self.default_port = default_port

    def handle(self, payload: Any, ctx: ServiceCallContext) -> Any:
        return self._fn(payload, ctx)
