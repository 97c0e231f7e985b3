"""Cost-model placement search — the §7 "scheduling" future work — and
online re-placement.

:func:`plan_colocated <repro.pipeline.placement.plan_colocated>` is a
heuristic: follow the services. On the paper's testbed nothing beats it;
when services are replicated on devices of different speeds, when heavy
modules would pile onto one device (piling every module of a 30 fps
pipeline onto the one fast desktop melts it), or when the placement that
was optimal at deploy time *drifts* (a device slows down, crashes, or picks
up a second pipeline), a search against an explicit cost model wins:

* :class:`CostModel` estimates one placement's per-frame critical-path
  latency (module dispatch overheads, service times local or remote,
  inter-device transfers from the topology), adds a utilization term
  (offered load per device, normalized by cores) and a memory-footprint
  term, and can be *calibrated* with observed per-module latencies so the
  model tracks the running system rather than its specs.
* :func:`plan_optimized` searches assignments against that score —
  exhaustively when the space is small, with seeded random-restart local
  search otherwise — and degrades gracefully to the co-located heuristic:
  when the search finds nothing strictly better, the
  :func:`~repro.pipeline.placement.plan_colocated` plan is returned as-is.
* :class:`OnlineOptimizer` closes the loop: it periodically re-plans every
  watched pipeline from live ``MetricsCollector``/trace critical-path data
  and feeds the winning moves into :meth:`Deployer.migrate
  <repro.pipeline.deployer.Deployer.migrate>`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import networkx as nx

from ..devices.device import Device
from ..errors import ConfigError, Interrupt, NetworkError, PlacementError
from ..net.topology import Topology
from ..runtime.module import Module
from ..services.balancer import host_is_live
from ..services.host import ServiceHost
from ..services.registry import ServiceRegistry
from ..services.stubs import API_MARSHAL_S
from .config import ModuleConfig, PipelineConfig
from .dag import build_graph
from .placement import (
    PlacementPlan,
    _check_device,
    plan_colocated,
    plan_single_host,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from .pipeline import Pipeline

OPTIMIZED = "optimized"

#: Fixed remote-call overhead (marshal both sides + reply) beyond transfer.
REMOTE_CALL_OVERHEAD_S = 0.004

#: Clamp on the observed/modeled calibration ratio: a wildly off sample
#: (e.g. one frame measured during a network blip) must not swing the
#: model by more than this factor in either direction.
_CALIBRATION_CLAMP = 4.0

#: Latency-equivalent penalty (seconds) per unit of device
#: over-utilization, and per unit of module-footprint overflow past half a
#: device's RAM.
CAPACITY_WEIGHT_S = 1.0
MEMORY_WEIGHT_S = 0.5

#: Seeded random starts of the local search past ``max_candidates``, and
#: the seed of their RNG (the search is deterministic under it).
RESTARTS = 3
SEARCH_SEED = 0


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Knobs for the cost model, the search, and online re-placement.

    Attributes:
        edge_bytes: assumed payload size on pipeline edges and remote
            service requests — one int for every edge (a quality-80 VGA
            JPEG by default), or a ``(src_device, dst_device) -> int``
            function when some edges are known to carry less.
        fps: offered load per pipeline, used to convert per-event compute
            seconds into device utilization.
        module_footprint_mb: assumed resident footprint of one deployed
            module (runtime + model weights).
        max_candidates: exhaustive-search budget; larger spaces fall back
            to seeded random-restart local search.
        replan_interval_s: how often the online optimizer reconsiders each
            watched pipeline.
        replan_threshold_frac: minimum predicted fractional latency
            improvement before the online optimizer migrates anything —
            the hysteresis that keeps it from chasing noise.
        cloud_bias_s: latency-equivalent penalty charged per service call
            that a candidate placement sends to a cloud-tier device (one
            attached via :meth:`Topology.add_cloud
            <repro.net.topology.Topology.add_cloud>`). The WAN's latency
            and bandwidth are already priced through the topology; this
            knob expresses the *billing* preference — the dollars a cloud
            call costs that a home call does not — so ablations can steer
            the search toward or away from the shared tier. 0 (default)
            prices cloud purely on latency.
    """

    edge_bytes: int | Callable[[str, str], int] = 42_000
    fps: float = 10.0
    module_footprint_mb: int = 64
    max_candidates: int = 20_000
    replan_interval_s: float = 2.0
    replan_threshold_frac: float = 0.05
    cloud_bias_s: float = 0.0

    def __post_init__(self) -> None:
        if not callable(self.edge_bytes) and self.edge_bytes < 0:
            raise ConfigError("edge_bytes must be >= 0")
        if self.cloud_bias_s < 0:
            raise ConfigError("cloud_bias_s must be >= 0")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.module_footprint_mb < 0:
            raise ConfigError("module_footprint_mb must be >= 0")
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1")
        if self.replan_interval_s <= 0:
            raise ConfigError("replan_interval_s must be positive")
        if not 0 <= self.replan_threshold_frac < 1:
            raise ConfigError("replan_threshold_frac must be in [0, 1)")


@dataclass(frozen=True, slots=True)
class PlacementCost:
    """The latency verdict on one candidate placement."""

    critical_path_s: float
    transfer_s: float
    compute_s: float

    @property
    def total(self) -> float:
        return self.critical_path_s


@dataclass(frozen=True, slots=True)
class OptimizedCost:
    """One candidate's score: modeled latency plus capacity/memory penalties
    (and, when ``cloud_bias_s`` is set, a billing penalty per cloud call)."""

    latency: PlacementCost
    capacity_penalty_s: float
    memory_penalty_s: float
    cloud_penalty_s: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.latency.critical_path_s
            + self.capacity_penalty_s
            + self.memory_penalty_s
            + self.cloud_penalty_s
        )


@dataclass(frozen=True, slots=True)
class CloudPricing:
    """Dollar rates for the fleet's per-home cost accounting.

    The latency cost model decides *where* work runs; this prices what the
    chosen split costs, Llama-style ($ per query → $ per home). All rates
    are hourly so :meth:`home_hourly_cost` reads as a monthly-bill-shaped
    number regardless of how short the simulated window was.

    Attributes:
        edge_device_per_hour: amortized hardware + power cost of keeping
            one home device on ($/device-hour).
        cloud_cpu_per_hour: price of one busy cloud CPU ($/core-hour of
            actual compute, i.e. serverless-style billing).
        egress_per_gb: WAN transfer price per gigabyte crossing the metered
            uplink (either direction).
    """

    edge_device_per_hour: float = 0.004
    cloud_cpu_per_hour: float = 0.15
    egress_per_gb: float = 0.08

    def __post_init__(self) -> None:
        if (self.edge_device_per_hour < 0 or self.cloud_cpu_per_hour < 0
                or self.egress_per_gb < 0):
            raise ConfigError("pricing rates must be >= 0")

    def home_hourly_cost(
        self,
        edge_devices: int,
        cloud_compute_s: float,
        egress_bytes: int,
        window_s: float,
    ) -> float:
        """One home's $/hour at the rates observed over *window_s* seconds:
        edge amortization plus cloud CPU and egress extrapolated from the
        window to an hour."""
        if window_s <= 0:
            raise ConfigError("window_s must be positive")
        hourly_scale = 3600.0 / window_s
        cloud_cpu_hours = cloud_compute_s * hourly_scale / 3600.0
        egress_gb_per_hour = egress_bytes * hourly_scale / 1e9
        return (
            self.edge_device_per_hour * edge_devices
            + self.cloud_cpu_per_hour * cloud_cpu_hours
            + self.egress_per_gb * egress_gb_per_hour
        )


class CostModel:
    """Estimates what a placement costs per frame, without simulating it.

    The score is modeled critical-path latency plus capacity, memory and
    billing penalties.

    ``observed_module_s`` maps a module name to ``(observed_seconds,
    device_measured_on)``; the model scales its per-module prediction by the
    observed/modeled ratio on the measured device (clamped to 4x either
    way), so a module that runs hotter than its spec suggests is charged
    accordingly on *every* candidate device.

    A model is a snapshot of one planning call. The DAG's walk order, the
    host serving each (service, caller device) pair, and what placing a
    module on a device costs and bills are worked out once — when the model
    is built or on first use — and looked up for every later candidate, so
    a change of devices, hosts or routes needs a new model, not another
    call on this one. Only ``pool.contention()`` is read live at score time.
    """

    def __init__(
        self,
        config: PipelineConfig,
        devices: dict[str, Device],
        registry: ServiceRegistry,
        topology: Topology,
        optimizer: OptimizerConfig | None = None,
        observed_module_s: dict[str, tuple[float, str]] | None = None,
    ) -> None:
        self.config = config
        self.devices = devices
        self.registry = registry
        self.topology = topology
        self.optimizer = optimizer or OptimizerConfig()
        edge_bytes = self.optimizer.edge_bytes
        self.edge_bytes = (
            edge_bytes if callable(edge_bytes) else lambda src, dst: edge_bytes
        )
        self.observed_module_s = dict(observed_module_s or {})
        graph = build_graph(config)
        self._modules = {module.name: module for module in config.modules}
        self._walk = [
            (name, tuple(graph.predecessors(name)))
            for name in nx.topological_sort(graph)
        ]
        self._edges = tuple(graph.edges)
        self._serving: dict[tuple[str, str], tuple[ServiceHost, float]] = {}
        self._calibration: dict[str, float] = {}
        self._module_cost_cache: dict[tuple[str, str], float] = {}
        self._transfer_cache: dict[tuple[str, str], float] = {}
        self._billing_cache: dict[tuple[str, str], tuple] = {}

    # -- calibrated node/edge costs ------------------------------------------
    def module_cost(self, module: ModuleConfig, device_name: str) -> float:
        """Calibrated dispatch overhead + service time for one event on
        *device_name*."""
        key = (module.name, device_name)
        cached = self._module_cost_cache.get(key)
        if cached is None:
            cached = self._module_cost_cache[key] = (
                self._modeled_cost(module, device_name)
                * self.calibration(module.name)
            )
        return cached

    def _modeled_cost(self, module: ModuleConfig, device_name: str) -> float:
        """What the specs alone predict, before calibration."""
        cost = self.devices[device_name].spec.compute_time(
            Module.event_overhead_s
        )
        for service_name in module.services:
            host, remote_penalty = self._serving_host(service_name, device_name)
            cost += (
                host.device.spec.compute_time(host.service.reference_cost_s)
                + remote_penalty
            )
        return cost

    def calibration(self, module_name: str) -> float:
        """Observed/modeled cost ratio for one module (1.0 when unobserved)."""
        factor = self._calibration.get(module_name)
        if factor is not None:
            return factor
        entry = self.observed_module_s.get(module_name)
        factor = 1.0
        if entry is not None:
            observed_s, measured_device = entry
            if measured_device in self.devices:
                modeled = self._modeled_cost(
                    self._modules[module_name], measured_device
                )
                if modeled > 0 and observed_s > 0:
                    factor = min(
                        _CALIBRATION_CLAMP,
                        max(1.0 / _CALIBRATION_CLAMP, observed_s / modeled),
                    )
        self._calibration[module_name] = factor
        return factor

    def _serving_host(
        self, service_name: str, caller_device: str
    ) -> tuple[ServiceHost, float]:
        """The host that serves *caller_device*'s calls to *service_name*
        and the remote-call seconds they pay on top of its service time.

        Only live hosts count (the balancer dials no other). A co-located
        one serves for free; otherwise the cheapest by call overhead +
        request + 512-byte reply + service time, which is the rule the
        ``cost_aware`` balancer dials by. Every term of a score that asks
        where a call runs reads this one answer, resolved once per model.
        """
        key = (service_name, caller_device)
        serving = self._serving.get(key)
        if serving is not None:
            return serving
        hosts = [
            host for host in self.registry.hosts_of(service_name)
            if host_is_live(host)
        ]
        serving = next(
            ((host, 0.0) for host in hosts if host.device.name == caller_device),
            None,
        )
        if serving is None:
            best_total = None
            for host in hosts:
                device = host.device.name
                penalty = (
                    REMOTE_CALL_OVERHEAD_S
                    + self.topology.expected_delay(
                        caller_device, device,
                        self.edge_bytes(caller_device, device),
                    )
                    + self.topology.expected_delay(device, caller_device, 512)
                )
                total = penalty + host.device.spec.compute_time(
                    host.service.reference_cost_s
                )
                if best_total is None or total < best_total:
                    best_total, serving = total, (host, penalty)
        if serving is None:
            raise PlacementError(f"service {service_name!r} has no live host")
        self._serving[key] = serving
        return serving

    def transfer_cost(self, src_device: str, dst_device: str) -> float:
        if src_device == dst_device:
            return 0.0001  # loopback hand-off
        key = (src_device, dst_device)
        cached = self._transfer_cache.get(key)
        if cached is None:
            cached = self._transfer_cache[key] = self.topology.expected_delay(
                src_device, dst_device, self.edge_bytes(src_device, dst_device)
            )
        return cached

    # -- whole-placement latency ----------------------------------------------
    def evaluate(self, assignments: dict[str, str]) -> PlacementCost:
        """Critical-path latency of the DAG under *assignments*."""
        node_cost = {
            name: self.module_cost(module, assignments[name])
            for name, module in self._modules.items()
        }
        # longest path over node+edge weights via DP in topological order
        best: dict[str, float] = {}
        transfer_total = 0.0
        for name, predecessors in self._walk:
            incoming = [
                best[p] + self.transfer_cost(assignments[p], assignments[name])
                for p in predecessors
            ]
            best[name] = node_cost[name] + (max(incoming) if incoming else 0.0)
        for a, b in self._edges:
            transfer_total += self.transfer_cost(assignments[a], assignments[b])
        return PlacementCost(
            critical_path_s=max(best.values()),
            transfer_s=transfer_total,
            compute_s=sum(node_cost.values()),
        )

    # -- capacity and memory --------------------------------------------------
    def _billing(self, module_name: str, device_name: str) -> tuple:
        """What placing *module_name* on *device_name* bills, as ``(charges,
        pooled, cloud_calls)``: the ``(charged_device, busy_seconds_per_s)``
        utilization charges in the order they are added, a ``(pool,
        service_seconds)`` pair per call served by a pooled host, and the
        number of calls served from a cloud-tier device."""
        key = (module_name, device_name)
        billing = self._billing_cache.get(key)
        if billing is None:
            fps = self.optimizer.fps
            spec = self.devices[device_name].spec
            charges = [
                (device_name, fps * spec.compute_time(Module.event_overhead_s))
            ]
            pooled = []
            cloud_calls = 0
            for service_name in self._modules[module_name].services:
                host, _ = self._serving_host(service_name, device_name)
                exec_device = host.device
                if exec_device.name != device_name:
                    # request + reply marshaling burns the caller's CPU
                    charges.append(
                        (device_name, fps * spec.compute_time(2 * API_MARSHAL_S))
                    )
                service_s = exec_device.spec.compute_time(
                    host.service.reference_cost_s
                )
                charges.append((exec_device.name, fps * service_s))
                if host.pool is not None:
                    pooled.append((host.pool, service_s))
                cloud_calls += self.topology.is_cloud(exec_device.name)
            billing = self._billing_cache[key] = (charges, pooled, cloud_calls)
        return billing

    def utilization(self, assignments: dict[str, str]) -> dict[str, float]:
        """Offered busy-seconds per second per device, normalized by cores.

        Each module charges its dispatch overhead (and the marshal cost of
        any remote service call) to its hosting device at ``fps`` events
        per second; each service call charges the service's compute time to
        the device that actually executes it.
        """
        load: dict[str, float] = {name: 0.0 for name in self.devices}
        for placed in assignments.items():
            charges, _, _ = self._billing(*placed)
            for device_name, busy in charges:
                load[device_name] = load.get(device_name, 0.0) + busy
        cores = {
            name: self.devices[name].spec.cores if name in self.devices else 1
            for name in load
        }
        return {
            name: seconds / max(1, cores[name])
            for name, seconds in load.items()
        }

    def pool_contention_s(self, assignments: dict[str, str]) -> float:
        """Live latency-equivalent seconds of shared-pool queueing this
        candidate would feel: for every service call that lands on a pooled
        host, the device pool's backlog-per-slot scaled by that call's
        compute time. Fixed-replica hosts contribute nothing — their queues
        are already modeled by the capacity term; a pooled device's real
        wait is set by *everyone* queued on its shared slots."""
        total = 0.0
        for placed in assignments.items():
            _, pooled, _ = self._billing(*placed)
            for pool, service_s in pooled:
                total += pool.contention() * service_s
        return total

    def capacity_penalty(self, assignments: dict[str, str]) -> float:
        overload = sum(
            max(0.0, u - 1.0) for u in self.utilization(assignments).values()
        )
        return (
            CAPACITY_WEIGHT_S * overload
            + self.pool_contention_s(assignments)
        )

    def memory_penalty(self, assignments: dict[str, str]) -> float:
        counts: dict[str, int] = {}
        for device_name in assignments.values():
            counts[device_name] = counts.get(device_name, 0) + 1
        penalty = 0.0
        for device_name, count in counts.items():
            spec = self.devices[device_name].spec
            footprint = count * self.optimizer.module_footprint_mb
            budget = max(1.0, spec.memory_mb * 0.5)
            if footprint > budget:
                penalty += MEMORY_WEIGHT_S * (footprint - budget) / budget
        return penalty

    def cloud_penalty(self, assignments: dict[str, str]) -> float:
        """Billing penalty: ``cloud_bias_s`` latency-equivalent seconds per
        service call this candidate routes to a cloud-tier device (the
        host a co-located or cheapest-remote resolution would pick). The
        WAN's *latency* is already in the transfer/service terms; this is
        the dollar preference only."""
        bias = self.optimizer.cloud_bias_s
        if bias == 0.0:
            return 0.0
        total = 0.0
        for placed in assignments.items():
            _, _, cloud_calls = self._billing(*placed)
            for _ in range(cloud_calls):
                total += bias
        return total

    def score(self, assignments: dict[str, str]) -> OptimizedCost:
        """Full verdict on one candidate placement."""
        return OptimizedCost(
            latency=self.evaluate(assignments),
            capacity_penalty_s=self.capacity_penalty(assignments),
            memory_penalty_s=self.memory_penalty(assignments),
            cloud_penalty_s=self.cloud_penalty(assignments),
        )


def plan_optimized(
    config: PipelineConfig,
    devices: dict[str, Device],
    registry: ServiceRegistry,
    topology: Topology,
    default_device: str,
    optimizer: OptimizerConfig | None = None,
    observed_module_s: dict[str, tuple[float, str]] | None = None,
) -> PlacementPlan:
    """Search device assignments against the capacity-aware cost model.

    Pinned modules stay pinned. Small spaces are searched exhaustively
    (``optimizer.max_candidates`` combinations); larger ones run greedy
    local search from the co-located plan, the single-host plan, and
    :data:`RESTARTS` seeded random starts. When nothing beats the
    co-located heuristic strictly, that plan is returned unchanged
    (``strategy == "colocated"``) — on the paper's testbed the two agree,
    and callers can treat the strategy tag as a provenance marker.

    Raises :class:`~repro.errors.PlacementError` for an unknown default
    device, a module pinned to an unknown device, or a declared service
    hosted nowhere in the home.
    """
    _check_device(default_device, devices, "default device")
    for module in config.modules:
        if module.device is not None:
            _check_device(module.device, devices, f"module {module.name!r} pin")
        for service_name in module.services:
            if service_name not in registry:
                raise PlacementError(
                    f"module {module.name!r} needs service {service_name!r},"
                    " which is hosted nowhere in the home"
                )
    model = CostModel(
        config, devices, registry, topology,
        optimizer=optimizer, observed_module_s=observed_module_s,
    )
    return _search(model, default_device)


def _search(model: CostModel, default_device: str) -> PlacementPlan:
    """The one search: score the co-located plan, then every candidate (or,
    past ``max_candidates``, greedy walks from a few starts), and keep the
    co-located plan unless something beats it by more than 1e-9."""
    config, devices, opt = model.config, model.devices, model.optimizer
    fixed = {m.name: m.device for m in config.modules if m.device is not None}
    free = [m.name for m in config.modules if m.device is None]
    device_names = sorted(devices)

    fallback = plan_colocated(config, devices, model.registry, default_device)
    best_assignment = fallback.assignments
    best_total = fallback_total = model.score(best_assignment).total

    scored = ()  # (assignments, total) pairs; empty when every module is pinned
    if free and len(device_names) ** len(free) <= opt.max_candidates:
        candidates = (
            {**fixed, **dict(zip(free, choice))}
            for choice in itertools.product(device_names, repeat=len(free))
        )
        scored = ((a, model.score(a).total) for a in candidates)
    elif free:
        rng = random.Random(SEARCH_SEED)
        starts = [
            fallback.assignments,
            plan_single_host(config, devices, default_device).assignments,
        ]
        for _ in range(RESTARTS):
            start = dict(fixed)
            start.update({name: rng.choice(device_names) for name in free})
            starts.append(start)
        scored = (
            _local_search(model, start, free, device_names) for start in starts
        )
    for assignments, total in scored:
        if total < best_total - 1e-9:
            best_total = total
            best_assignment = assignments

    if best_total < fallback_total - 1e-9:
        return PlacementPlan(
            pipeline=config.name, strategy=OPTIMIZED,
            assignments=best_assignment,
        )
    return fallback


def _local_search(
    model: CostModel,
    start: dict[str, str],
    free: list[str],
    device_names: list[str],
) -> tuple[dict[str, str], float]:
    """Greedy first-improvement: move one free module at a time while it
    strictly lowers the score."""
    assignments = dict(start)
    current = model.score(assignments).total
    improved = True
    while improved:
        improved = False
        for name in free:
            original = assignments[name]
            for candidate in device_names:
                if candidate == original:
                    continue
                assignments[name] = candidate
                total = model.score(assignments).total
                if total < current - 1e-9:
                    current = total
                    original = candidate
                    improved = True
                else:
                    assignments[name] = original
    return assignments, current


# -- online re-placement -------------------------------------------------------

def observed_module_seconds(
    pipeline: "Pipeline", tracer=None, window: int = 50
) -> dict[str, float]:
    """Live per-module handler seconds for calibration.

    With a tracer, the mean of the last *window* ``module.<name>`` compute
    spans for this pipeline (the same spans critical-path analysis walks);
    otherwise, :meth:`MetricsCollector.recent_stage_mean
    <repro.metrics.collector.MetricsCollector.recent_stage_mean>` for any
    stage that shares a module's name.
    """
    observed: dict[str, float] = {}
    module_names = set(pipeline.config.module_names())
    if tracer is not None:
        prefix = f"{pipeline.config.name}/"
        samples: dict[str, list[float]] = {}
        for span in tracer.spans:
            if not span.trace_id.startswith(prefix):
                continue
            if not span.name.startswith("module."):
                continue
            name = span.name.removeprefix("module.")
            if name in module_names:
                samples.setdefault(name, []).append(span.duration)
        for name, values in samples.items():
            tail = values[-window:]
            observed[name] = sum(tail) / len(tail)
        return observed
    for name in module_names:
        mean = pipeline.metrics.recent_stage_mean(name, window)
        if mean is not None:
            observed[name] = mean
    return observed


@dataclass(slots=True)
class ReplanEvent:
    """Record of one online re-placement decision that migrated modules."""

    at: float
    pipeline: str
    #: module -> (from_device, to_device)
    moves: dict[str, tuple[str, str]] = field(default_factory=dict)
    predicted_before_s: float = 0.0
    predicted_after_s: float = 0.0
    observed_mean_s: float = 0.0


class OnlineOptimizer:
    """Periodically re-places watched pipelines from live measurements.

    Every ``replan_interval_s`` it builds one :class:`CostModel` restricted
    to *up* devices, calibrated with observed per-module latencies (trace
    spans when tracing is on, metrics stages otherwise), searches it for a
    target placement as :func:`plan_optimized` does, and — when the predicted
    improvement clears ``replan_threshold_frac``, or the current placement
    is stranded on a down device — applies the difference through
    :meth:`Deployer.migrate <repro.pipeline.deployer.Deployer.migrate>`.
    """

    def __init__(self, home: "VideoPipe", config: OptimizerConfig | None = None) -> None:
        self.home = home
        self.config = config or OptimizerConfig()
        self.events: list[ReplanEvent] = []
        self._pipelines: dict[str, "Pipeline"] = {}
        self._running = False
        self._proc = None

    def watch(self, pipeline: "Pipeline") -> None:
        """Add a pipeline to the replan loop (idempotent)."""
        self._pipelines.setdefault(pipeline.config.name, pipeline)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.home.kernel.process(self._loop(), name="optimizer")

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("optimizer stopped")
        self._proc = None

    def _loop(self):
        try:
            while self._running:
                yield self.config.replan_interval_s
                for pipeline in list(self._pipelines.values()):
                    self._consider(pipeline)
        except Interrupt:
            return

    def replan_now(self, pipeline: "Pipeline") -> ReplanEvent | None:
        """Reconsider one pipeline immediately, outside the periodic loop.

        The SLO controller's placement rung calls this when a pipeline is
        overloaded — same calibrated model, same migration threshold as a
        scheduled tick. Returns the :class:`ReplanEvent` when modules
        actually moved, ``None`` when the current placement stands."""
        before = len(self.events)
        self._consider(pipeline)
        if len(self.events) > before:
            return self.events[-1]
        return None

    def _consider(self, pipeline: "Pipeline") -> None:
        home = self.home
        live = {name: dev for name, dev in home.devices.items() if dev.up}
        if not live or home.deployer is None:
            return
        current = pipeline.placement.assignments
        observed: dict[str, tuple[float, str]] = {}
        for name, seconds in observed_module_seconds(
            pipeline, home.tracer
        ).items():
            device = current.get(name)
            if device is not None:
                observed[name] = (seconds, device)
        source_device = current.get(pipeline.config.source_module)
        default = source_device if source_device in live else sorted(live)[0]
        model = CostModel(
            pipeline.config, live, home.registry, home.topology,
            optimizer=self.config, observed_module_s=observed or None,
        )
        try:
            target = _search(model, default)
        except (PlacementError, NetworkError):
            # a pin or every host of a service is down, or a live device is
            # partitioned and its routes cannot be priced: skip this tick
            return
        moves = {
            name: (current[name], device)
            for name, device in target.assignments.items()
            if current.get(name) != device
            and pipeline.config.module(name).device is None
        }
        if not moves:
            return
        stranded = any(device not in live for device in current.values())
        before = float("inf") if stranded else model.score(current).total
        after = model.score(target.assignments).total
        if not stranded:
            if before <= 0:
                return
            if (before - after) / before < self.config.replan_threshold_frac:
                return
        for name in sorted(moves):
            home.deployer.migrate(pipeline, name, moves[name][1])
        pipeline.metrics.increment("replans")
        self.events.append(ReplanEvent(
            at=home.now,
            pipeline=pipeline.config.name,
            moves=moves,
            predicted_before_s=before,
            predicted_after_s=after,
            observed_mean_s=self._observed_mean_s(pipeline),
        ))

    def _observed_mean_s(self, pipeline: "Pipeline") -> float:
        if self.home.tracer is not None:
            from ..trace.critical_path import critical_path

            report = critical_path(
                self.home.tracer, pipeline=pipeline.config.name
            )
            if report.frame_count:
                return report.mean_total_ms() / 1e3
        return pipeline.metrics.total_latency_summary().mean
