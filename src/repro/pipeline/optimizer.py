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

import functools
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..actions import Action
from ..devices.device import Device
from ..errors import ConfigError, NetworkError, PlacementError
from ..net.topology import Topology
from ..runtime.module import Module
from ..services.balancer import host_is_live
from ..services.host import ServiceHost
from ..services.registry import ServiceRegistry
from ..services.stubs import API_MARSHAL_S
from .config import ModuleConfig, PipelineConfig
from .dag import walk
from .placement import (
    PlacementPlan,
    _check_device,
    plan_colocated,
    plan_single_host,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..sim.kernel import Ticker
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

    A model is a snapshot of one planning call. Its DAG walk, the host
    serving each (service, caller device) pair and the tables of what each
    placement costs and bills are worked out once, and :meth:`sweep` prices
    any number of candidates from them in one numpy pass; a change of
    devices, hosts or routes needs a new model. ``pool.contention()`` is
    read once per sweep, the value each of its candidates would read alone:
    no simulated time passes during a planning call.
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
        #: The devices a candidate matrix indexes, in this order.
        self.device_names = sorted(devices)
        self._modules = {module.name: module for module in config.modules}
        self._module_index = {name: m for m, name in enumerate(self._modules)}
        self._walk = walk(config)
        self._edges = tuple(
            (module.name, target) for module in config.modules
            for target in dict.fromkeys(module.next_modules)
        )
        self._serving: dict[tuple[str, str], tuple[ServiceHost, float]] = {}
        self._calibration: dict[str, float] = {}
        self._node: np.ndarray | None = None  # the tables, see _tabulate
        self._refusal: NetworkError | None = None

    # -- calibrated node/edge costs ------------------------------------------
    def module_cost(self, module: ModuleConfig, device_name: str) -> float:
        """Calibrated dispatch overhead + service time for one event on
        *device_name*."""
        return self._modeled_cost(module, device_name) * self.calibration(
            module.name)

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
        request + 512-byte reply + service time. The runtime's balancer
        dials the fastest live host by service time alone, a difference
        ROADMAP item 6c is to reconcile. Every term of a score that asks
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
        return self.topology.expected_delay(
            src_device, dst_device, self.edge_bytes(src_device, dst_device)
        )

    # -- the tables ------------------------------------------------------------
    def _tabulate(self) -> None:
        """Tabulate, per module and device, a placement's cost, utilization
        charges (its dispatch overhead and a remote call's marshaling on its
        device, each call's compute time where it runs, all at ``fps``) and
        pooled and cloud calls; and each device pair's transfer. A refused
        route is NaN, and a sweep reading one raises, as pricing it alone would."""
        modules, names = list(self._modules.values()), self.device_names
        fps, calls = self.optimizer.fps, max(len(m.services) for m in modules)
        self._node = np.array([[self._priced(self.module_cost, module, device)
                                for device in names] for module in modules])
        self._transfer = np.array([[self._priced(self.transfer_cost, src, dst)
                                    for dst in names] for src in names])
        self._charge_to = np.zeros(self._node.shape + (1 + 2 * calls,), np.intp)
        self._charge_s = np.zeros(self._charge_to.shape)
        self._pool_of = np.zeros(self._node.shape + (calls,), np.intp)
        self._pool_s = np.zeros(self._pool_of.shape)
        self._cloud_calls = np.zeros(self._node.shape, np.intp)
        # column of each charged device and of each pool: the model's devices
        # first, then any other device a serving host runs on, as first met
        self._charged, self._pools = dict(zip(self.devices, itertools.count())), {}
        for m, p in zip(*np.nonzero(~np.isnan(self._node))):
            device, spec = names[p], self.devices[names[p]].spec
            charges = [(device, fps * spec.compute_time(Module.event_overhead_s))]
            for k, service_name in enumerate(modules[m].services):
                host, _ = self._serving_host(service_name, device)
                if host.device.name != device:
                    # request + reply marshaling burns the caller's CPU
                    charges.append(
                        (device, fps * spec.compute_time(2 * API_MARSHAL_S)))
                service_s = host.device.spec.compute_time(
                    host.service.reference_cost_s)
                charges.append((host.device.name, fps * service_s))
                if host.pool is not None:
                    self._pool_of[m, p, k] = self._pools.setdefault(
                        host.pool, len(self._pools))
                    self._pool_s[m, p, k] = service_s
                self._cloud_calls[m, p] += self.topology.is_cloud(host.device.name)
            for c, (charged, busy) in enumerate(charges):
                self._charge_to[m, p, c] = self._charged.setdefault(
                    charged, len(self._charged))
                self._charge_s[m, p, c] = busy
        self._cores = np.array([max(1, self.devices[name].spec.cores) if name
                                in self.devices else 1 for name in self._charged])
        self._budget = np.array([max(1.0, self.devices[name].spec.memory_mb * 0.5)
                                 for name in names])

    def _priced(self, cost, *args) -> float:
        """``cost(*args)``, or NaN when a route it needs is refused."""
        try:
            return cost(*args)
        except NetworkError as refusal:
            self._refusal = self._refusal or refusal
            return np.nan

    def _candidates(self, base: dict[str, str], free: Sequence[str] = (), rows=None):
        """*base*'s module names, and each candidate's device indices."""
        if self._node is None:
            self._tabulate()
        names = list(base)
        full = np.array([[self.device_names.index(d) for d in base.values()]])
        if rows is not None:
            full = full.repeat(len(rows), axis=0)
            full[:, [names.index(name) for name in free]] = rows
        return names, full

    def _utilization(self, names: list[str], full: np.ndarray) -> np.ndarray:
        """Each candidate's busy-seconds per second per charged device, per core."""
        rows, load = np.arange(len(full)), np.zeros((len(full), len(self._charged)))
        modules = [self._module_index[name] for name in names]
        charge_to = self._charge_to[modules, full]
        charge_s = self._charge_s[modules, full]
        for j, c in np.ndindex(charge_to.shape[1:]):
            load[rows, charge_to[:, j, c]] += charge_s[:, j, c]
        return load / self._cores

    def sweep(self, base: dict[str, str], free: Sequence[str] = (), rows=None):
        """Score candidate placements in one pass. Each row of *rows* is one
        candidate: *base* with module ``free[i]`` on ``device_names[row[i]]``
        (*base* alone when *rows* is None). Returns an array with, per
        candidate, ``critical_path_s``, ``transfer_s``, ``compute_s``,
        ``capacity_penalty_s``, ``memory_penalty_s``, ``cloud_penalty_s`` and
        ``total``, each added up as one candidate alone would be: placements
        in *base*'s key order, memory terms by each device's first appearance.
        """
        names, full = self._candidates(base, free, rows)
        n, column = len(full), {name: j for j, name in enumerate(names)}
        modules = [self._module_index[name] for name in names]
        node = self._node[modules, full]
        # latency: the longest node+edge path into each module, in walk order
        best = {}
        for name, predecessors in self._walk:
            here = full[:, column[name]]
            incoming = [best[p] + self._transfer[full[:, column[p]], here]
                        for p in predecessors]
            best[name] = node[:, column[name]] + (
                functools.reduce(np.maximum, incoming) if incoming else 0.0)
        critical = functools.reduce(np.maximum, best.values())
        transfer = _fold(n, (self._transfer[full[:, column[a]], full[:, column[b]]]
                             for a, b in self._edges))
        compute = _fold(n, (node[:, column[name]] for name in self._modules))
        overload = _fold(n, np.maximum(
            0.0, self._utilization(names, full) - 1.0).T)
        # a call to a pooled host waits behind everyone queued on the pool's
        # shared slots: backlog per slot x the call's compute time (a
        # fixed-replica host's queue is the utilization term's business)
        contention = np.array([*(pool.contention() for pool in self._pools), 0.0])
        queued = (contention[self._pool_of[modules, full]]
                  * self._pool_s[modules, full])
        capacity = CAPACITY_WEIGHT_S * overload + _fold(
            n, queued.reshape(n, -1).T)
        counts = (full[:, :, None] == np.arange(len(self.device_names))).sum(axis=1)
        footprint = counts * self.optimizer.module_footprint_mb
        overflow = np.where(
            footprint > self._budget,
            MEMORY_WEIGHT_S * (footprint - self._budget) / self._budget, 0.0)
        memory = _fold(n, (
            np.where((full[:, :j] != full[:, [j]]).all(axis=1),
                     overflow[np.arange(n), full[:, j]], 0.0)
            for j in range(len(names))
        ))
        calls = self._cloud_calls[modules, full].sum(axis=1)
        cloud = _fold(n, (  # the bias added once per call, one after another
            np.where(calls > k, self.optimizer.cloud_bias_s, 0.0)
            for k in range(calls.max())))
        total = critical + capacity + memory + cloud
        if self._refusal is not None and np.isnan(total).any():
            raise self._refusal
        return np.column_stack(
            (critical, transfer, compute, capacity, memory, cloud, total))

    # -- one candidate ---------------------------------------------------------
    def evaluate(self, assignments: dict[str, str]) -> PlacementCost:
        """Critical-path latency of the DAG under *assignments*.

        A referee, like the three ``*_penalty`` readings: the planner reads
        :meth:`score`; the tests read one term of it through these."""
        return PlacementCost(*self.sweep(assignments)[0, :3].tolist())

    def utilization(self, assignments: dict[str, str]) -> dict[str, float]:
        """Offered busy-seconds per second per device, normalized by cores."""
        load = self._utilization(*self._candidates(assignments))[0]
        return dict(zip(self._charged, load.tolist()))

    def capacity_penalty(self, assignments: dict[str, str]) -> float:
        """The capacity term of :meth:`score`."""
        return self.score(assignments).capacity_penalty_s

    def memory_penalty(self, assignments: dict[str, str]) -> float:
        """The memory term of :meth:`score`."""
        return self.score(assignments).memory_penalty_s

    def cloud_penalty(self, assignments: dict[str, str]) -> float:
        """``cloud_bias_s`` per service call served from a cloud-tier device."""
        return self.score(assignments).cloud_penalty_s

    def score(self, assignments: dict[str, str]) -> OptimizedCost:
        """Full verdict on one candidate placement."""
        row = self.sweep(assignments)[0].tolist()
        return OptimizedCost(PlacementCost(*row[:3]), *row[3:6])


def _fold(n: int, columns) -> np.ndarray:
    """*columns* (arrays of *n* floats) added to 0.0 one after another."""
    total = np.zeros(n)
    for column in columns:
        total = total + column
    return total


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
    """The one search: score the co-located plan, then every candidate in
    one sweep (or, past ``max_candidates``, greedy walks from a few starts),
    and keep the co-located plan unless something beats it by more than
    1e-9, scanning the sweep's totals in candidate order."""
    config, devices, opt = model.config, model.devices, model.optimizer
    fixed = {m.name: m.device for m in config.modules if m.device is not None}
    free = [m.name for m in config.modules if m.device is None]
    device_names = model.device_names

    fallback = plan_colocated(config, devices, model.registry, default_device)
    best_assignment = fallback.assignments
    best_total = fallback_total = model.score(best_assignment).total

    if free and len(device_names) ** len(free) <= opt.max_candidates:
        rows = list(itertools.product(range(len(device_names)), repeat=len(free)))
        base = {**fixed, **dict.fromkeys(free, device_names[0])}
        totals = model.sweep(base, free, rows)[:, -1].tolist()
        for row, total in zip(rows, totals):
            if total < best_total - 1e-9:
                best_total = total
                best_assignment = {**fixed, **{
                    name: device_names[p] for name, p in zip(free, row)}}
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
        for start in starts:
            assignments, total = _local_search(model, start, free)
            if total < best_total - 1e-9:
                best_total, best_assignment = total, assignments

    if best_total < fallback_total - 1e-9:
        return PlacementPlan(
            pipeline=config.name, strategy=OPTIMIZED,
            assignments=best_assignment,
        )
    return fallback


def _local_search(
    model: CostModel, start: dict[str, str], free: list[str]
) -> tuple[dict[str, str], float]:
    """Greedy first-improvement: move one free module at a time while it
    strictly lowers the score. A module's moves differ from the current
    placement in it alone, so one sweep prices them and the scan replays.

    It runs only for a home past ``max_candidates``, which no example or
    bench builds; ``tests/pipeline/test_cost_reference.py`` holds its walk
    to the reference scorer."""
    assignments = dict(start)
    current = model.score(assignments).total
    moves = np.arange(len(model.device_names))[:, None]
    improved = True
    while improved:
        improved = False
        for name in free:
            original = assignments[name]
            totals = model.sweep(assignments, [name], moves)[:, -1].tolist()
            for candidate, total in zip(model.device_names, totals):
                if candidate != original and total < current - 1e-9:
                    current, original, improved = total, candidate, True
            assignments[name] = original
    return assignments, current


# -- online re-placement -------------------------------------------------------

def observed_module_seconds(
    pipeline: "Pipeline", window: int = 50
) -> dict[str, float]:
    """Live per-module handler seconds for calibration.

    :meth:`MetricsCollector.recent_stage_mean
    <repro.metrics.collector.MetricsCollector.recent_stage_mean>` for any
    stage that shares a module's name. Never the trace: an observer must
    not steer what it observes (``docs/TRACING.md``).
    """
    observed: dict[str, float] = {}
    for name in pipeline.config.module_names():
        mean = pipeline.metrics.recent_stage_mean(name, window)
        if mean is not None:
            observed[name] = mean
    return observed


class OnlineOptimizer:
    """Periodically re-places watched pipelines from live measurements.

    Every ``replan_interval_s`` it builds one :class:`CostModel` restricted
    to the home's live devices (``VideoPipe.live_devices``), calibrated with
    observed per-module latencies (the pipeline's metrics stages, whether
    or not tracing is on), searches it for a target placement as
    :func:`plan_optimized` does, and — when the predicted improvement clears
    ``replan_threshold_frac``, or the current placement is stranded on a
    device that is not live — applies the difference through
    :meth:`Deployer.migrate <repro.pipeline.deployer.Deployer.migrate>`.
    Each re-placement that moved modules is recorded in the home's
    ``actions`` log as a ``replan`` whose evidence holds the ``moves``
    (module -> (from device, to device)) and the predicted and observed
    seconds.
    """

    def __init__(self, home: "VideoPipe", config: OptimizerConfig | None = None) -> None:
        self.home = home
        self.config = config or OptimizerConfig()
        self.actions: list[Action] = home.actions
        self._pipelines: dict[str, "Pipeline"] = {}
        self._ticker: Ticker | None = None

    def watch(self, pipeline: "Pipeline") -> None:
        """Add a pipeline to the replan loop (idempotent)."""
        self._pipelines.setdefault(pipeline.config.name, pipeline)

    def start(self) -> None:
        if self._ticker is None:
            self._ticker = self.home.kernel.every(
                self.config.replan_interval_s, self._tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _tick(self) -> None:
        for pipeline in list(self._pipelines.values()):
            self.replan_now(pipeline)

    def replan_now(self, pipeline: "Pipeline") -> Action | None:
        """Reconsider one pipeline now; a scheduled tick does this for
        every watched pipeline, and the SLO controller's placement rung
        calls it when a pipeline is overloaded. Returns the ``replan``
        action when modules moved, ``None`` when the placement stands."""
        home = self.home
        live = home.live_devices()
        if not live or home.deployer is None:
            return None
        current = pipeline.placement.assignments
        observed: dict[str, tuple[float, str]] = {}
        for name, seconds in observed_module_seconds(pipeline).items():
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
            return None
        moves = {
            name: (current[name], device)
            for name, device in target.assignments.items()
            if current.get(name) != device
            and pipeline.config.module(name).device is None
        }
        if not moves:
            return None
        stranded = any(device not in live for device in current.values())
        before = float("inf") if stranded else model.score(current).total
        after = model.score(target.assignments).total
        if not stranded:
            if before <= 0:
                return None
            if (before - after) / before < self.config.replan_threshold_frac:
                return None
        for name in sorted(moves):
            home.deployer.migrate(pipeline, name, moves[name][1])
        pipeline.metrics.increment("replans")
        action = Action(
            at=home.now, controller="optimizer", kind="replan",
            target=pipeline.config.name,
            reason=("placement stranded on a down device" if stranded else
                    f"predicted {before * 1e3:.1f} -> {after * 1e3:.1f} ms"),
            evidence={"moves": moves, "predicted_before_s": before,
                      "predicted_after_s": after,
                      "observed_mean_s":
                          pipeline.metrics.total_latency_summary().mean},
        )
        self.actions.append(action)
        return action
