"""The VideoPipe system facade.

One :class:`VideoPipe` instance is a *home*: a kernel (simulated or
realtime), a Wi-Fi network, a set of heterogeneous devices each running the
uniform module runtime, a service registry, and a deployer. Applications
are pipeline configurations deployed into it.

Typical use::

    home = VideoPipe.paper_testbed(seed=7)
    home.deploy_service(PoseDetectorService(), "desktop")
    ...
    pipeline = home.deploy_pipeline(config)
    home.run_for(30.0)
    print(pipeline.metrics.throughput_fps(home.now, warmup_s=3.0))
"""

from __future__ import annotations

import os
from typing import Any, Callable

from ..audit.auditor import InvariantAuditor, Violation
from ..devices.catalog import make_spec
from ..devices.device import Device
from ..devices.spec import DeviceSpec
from ..errors import AdmissionError, ConfigError, DeviceError
from ..faults.injector import ChaosInjector
from ..faults.plan import FaultPlan
from ..liveops.policy import CanaryPolicy
from ..liveops.upgrade import LiveOpsManager, ModuleUpgrade
from ..metrics.collector import MetricsCollector
from ..monitor.failure_detector import (
    FailureDetector,
    HeartbeatResponder,
    failure_probe,
)
from ..monitor.monitor import Monitor
from ..monitor.orchestrator import (
    Orchestrator,
    evacuate_dead_device_remedy,
)
from ..monitor.probes import (
    ProbeFn,
    audit_probe,
    device_probe,
    pipeline_probe,
    service_probe,
    slo_probe,
    tracing_probe,
)
from ..net.broker import BrokeredTransport
from ..net.link import WIFI_HOME, LinkSpec
from ..net.topology import Topology
from ..net.transport import BrokerlessTransport, Transport
from ..pipeline.config import DataPlaneConfig, PerfConfig, PipelineConfig
from ..pipeline.deployer import Deployer
from ..pipeline.pipeline import Pipeline
from ..pipeline.optimizer import (
    OPTIMIZED,
    OnlineOptimizer,
    OptimizerConfig,
    plan_optimized,
)
from ..pipeline.placement import (
    COLOCATED,
    SINGLE_HOST,
    PlacementPlan,
    plan_colocated,
    plan_single_host,
)
from ..runtime.module import Module
from ..runtime.moduleruntime import ModuleRuntime
from ..services.base import Service
from ..services.host import ServiceHost
from ..services.registry import ServiceRegistry
from ..services.scaling import AutoScaler, ScalingPolicy
from ..sim.kernel import Kernel, RealtimeKernel
from ..sim.rng import RngStreams
from ..slo.controller import SLOController
from ..slo.spec import QUEUED, REJECTED, SLO, SLOConfig
from ..trace.recorder import TraceRecorder


class VideoPipe:
    """A home full of devices, ready to run video pipelines.

    Every ``enable_*`` switch reaches the devices, service hosts and
    pipelines the home already holds and the ones it gains later, whatever
    order the calls come in — ``DESIGN.md`` §5 (Wiring).
    """

    def __init__(
        self,
        seed: int = 0,
        realtime: bool = False,
        speed: float = 1.0,
        wifi: LinkSpec | None = None,
        transport: str = "zeromq",
        broker_device: str | None = None,
        kernel: Kernel | None = None,
    ) -> None:
        if kernel is not None and realtime:
            raise ConfigError("a shared kernel cannot be combined with realtime")
        if kernel is not None:
            # many homes on one clock — the fleet harness (repro.fleet)
            # simulates N homes in a single kernel this way
            self.kernel = kernel
        else:
            self.kernel = RealtimeKernel(speed) if realtime else Kernel()
        self.rng = RngStreams(seed)
        self.topology = Topology(self.kernel, self.rng)
        self.topology.add_wifi("wifi", wifi or WIFI_HOME)
        self.devices: dict[str, Device] = {}
        self.registry = ServiceRegistry()
        self._transport_kind = transport
        self._broker_device = broker_device
        self.transport: Transport | None = None
        self.deployer: Deployer | None = None
        self.autoscaler: AutoScaler | None = None
        self.monitor: Monitor | None = None
        self.detector: FailureDetector | None = None
        self.orchestrator: Orchestrator | None = None
        self.injector: ChaosInjector | None = None
        self._responders: dict[str, HeartbeatResponder] = {}
        self._perf: PerfConfig | None = None
        self._data_plane: DataPlaneConfig | None = None
        self.optimizer: OnlineOptimizer | None = None
        self.tracer: TraceRecorder | None = None
        self.auditor: InvariantAuditor | None = None
        self.slo: SLOController | None = None
        self.liveops: LiveOpsManager | None = None
        #: SLOs declared at deploy time before enable_slo() was called
        self._pending_slos: dict[str, SLO] = {}
        self.pipelines: list[Pipeline] = []
        if os.environ.get("REPRO_AUDIT"):
            # opt-in via environment (like REPRO_BENCH_FAST): audit every
            # home without touching application code; the CI audit job and
            # the pytest gate in tests/conftest.py build on this
            self.enable_audit()
            self.auditor.source = "env"

    # -- construction --------------------------------------------------------
    @classmethod
    def paper_testbed(cls, seed: int = 0, **kwargs) -> "VideoPipe":
        """The §5.1 setup: 2018 flagship phone + desktop + 4K TV on Wi-Fi."""
        home = cls(seed=seed, **kwargs)
        order = ["phone", "desktop", "tv"]
        broker = kwargs.get("broker_device")
        if broker in order:
            # the broker must join the network before the lazily-created
            # brokered transport first resolves it
            order.remove(broker)
            order.insert(0, broker)
        for kind in order:
            home.add_device(kind)
        return home

    def add_device(self, spec: DeviceSpec | str) -> Device:
        """Join a device to the home Wi-Fi and start its module runtime."""
        if isinstance(spec, str):
            spec = make_spec(spec)
        if spec.name in self.devices:
            raise DeviceError(f"device {spec.name!r} already exists")
        device = Device(self.kernel, spec, self.rng)
        self.topology.attach(spec.name, "wifi")
        return self._register_device(device)

    def add_cloud_device(self, wan: LinkSpec | None = None) -> Device:
        """Join the ``cloud`` device (the catalog's 32-core server) behind
        the home's access point over a metered WAN uplink (default profile:
        :data:`~repro.net.link.WAN_METRO`).

        The device behaves like any other — services deploy to it, modules
        can be placed on it — but it is only reachable across the WAN link,
        and every byte crossing that link is metered as cloud egress
        (:meth:`cloud_stats`). The placement optimizer and the
        ``cost_aware`` balancer price the WAN leg through the topology, so
        whether a home calls its hub or the cloud falls out of the same
        cost model as every other decision (``docs/FLEET.md``).
        """
        spec = make_spec("cloud")
        if spec.name in self.devices:
            raise DeviceError(f"device {spec.name!r} already exists")
        device = Device(self.kernel, spec, self.rng)
        self.topology.add_cloud(spec.name, wan)
        return self._register_device(device)

    def _register_device(self, device: Device) -> Device:
        """Shared tail of device admission: module runtime, then wiring."""
        self.devices[device.spec.name] = device
        ModuleRuntime(self.kernel, device, self._get_transport())
        self._wire_device(device)
        return device

    def cloud_stats(self) -> dict:
        """Cloud-tier accounting for this home: WAN egress bytes, calls
        served by cloud-hosted services, and their modeled CPU seconds.
        All zeros while no cloud device is attached."""
        calls = 0
        compute_s = 0.0
        for service_name in self.registry.service_names():
            for host in self.registry.hosts_of(service_name):
                if not self.topology.is_cloud(host.device.name):
                    continue
                served = host.local_calls + host.remote_calls
                calls += served
                compute_s += served * host.device.spec.compute_time(
                    host.service.reference_cost_s
                )
        return {
            "devices": self.topology.cloud_devices(),
            "egress_bytes": self.topology.wan_egress_bytes(),
            "calls": calls,
            "compute_s": compute_s,
        }

    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise DeviceError(f"unknown device {name!r}")

    def _get_transport(self) -> Transport:
        if self.transport is None:
            if self._transport_kind == "zeromq":
                self.transport = BrokerlessTransport(self.kernel, self.topology)
            elif self._transport_kind == "broker":
                if self._broker_device is None:
                    raise ConfigError("broker transport needs broker_device")
                # the broker is one of the home devices, so it must be the
                # first device added to the home
                self.transport = BrokeredTransport(
                    self.kernel, self.topology, self._broker_device
                )
            else:
                raise ConfigError(f"unknown transport {self._transport_kind!r}")
        return self.transport

    # -- wiring ------------------------------------------------------------------
    # The one place features attach to resources (DESIGN.md §5). Each
    # function is idempotent; admitting a resource wires that resource, and
    # enabling a feature replays all of them, so no order of calls matters.
    def _wire(self) -> None:
        """Replay the wiring over everything the home holds."""
        for device in self.devices.values():
            self._wire_device(device)
        for service_name in self.registry.service_names():
            for host in self.registry.hosts_of(service_name):
                self._wire_host(host)
        for pipeline in self.pipelines:
            self._wire_pipeline(pipeline)
        if self.liveops is not None:
            for upgrade in self.liveops.active_upgrades():
                self._wire_metrics(upgrade.shadow_metrics)
        if self.auditor is not None:
            if self.autoscaler is not None:
                self.auditor.watch_autoscaler(self.autoscaler)
            if self.slo is not None:
                self.auditor.watch_slo(self.slo)
            if self.liveops is not None:
                self.auditor.watch_liveops(self.liveops)
        self._wire_probe("failures", failure_probe, self.detector)
        self._wire_probe("tracing", tracing_probe, self.tracer)
        self._wire_probe("audit", audit_probe, self.auditor)
        self._wire_probe("slo", slo_probe, self.slo)

    def _wire_device(self, device: Device) -> None:
        name = device.spec.name
        perf, plane = self._perf, self._data_plane
        if perf is not None and perf.frame_dedup:
            device.frame_store.dedup = True
        if plane is not None:
            device.enable_arena()
            if plane.replica_pool:
                device.enable_replica_pool()
        if self.auditor is not None:
            self.auditor.watch_transport(device.runtime.transport)
            self.auditor.watch_store(device.frame_store)
            if device.arena is not None:
                self.auditor.watch_arena(device.arena)
        if self.detector is not None:
            if name not in self._responders:
                self._responders[name] = HeartbeatResponder(
                    self.kernel, device.runtime.transport, name
                )
            self.detector.watch(name)
        self._wire_probe(f"device/{name}", device_probe, device)

    def _wire_host(self, host: ServiceHost) -> None:
        perf, plane = self._perf, self._data_plane
        if perf is not None:
            if (perf.result_cache and host.service.cacheable
                    and host.result_cache is None):
                host.enable_result_cache()
            if perf.batching and host.service.max_batch > 1:
                host.enable_batching(max_wait_s=perf.max_wait_s)
        if plane is not None and plane.replica_pool:
            host.attach_pool(host.device.replica_pool)
        if self.autoscaler is not None:
            self.autoscaler.watch(host)
        if self.tracer is not None:
            host.tracer = self.tracer
        self._wire_probe(
            f"service/{host.service_name}@{host.device.name}",
            service_probe, host,
        )

    def _wire_pipeline(self, pipeline: Pipeline) -> None:
        if self.optimizer is not None:
            self.optimizer.watch(pipeline)
        if self.tracer is not None:
            pipeline.wiring.tracer = self.tracer
        if self.liveops is not None:
            pipeline.wiring.lineage = self.liveops.lineage
        self._wire_metrics(pipeline.metrics)
        self._wire_probe(
            f"pipeline/{pipeline.name}", pipeline_probe, pipeline
        )
        if self.slo is not None:
            self.slo.watch(
                pipeline, self._pending_slos.pop(pipeline.config.name, None)
            )

    def _wire_metrics(self, collector: MetricsCollector) -> None:
        """Audit one collector: a pipeline's, or a canary's shadow (whose
        metrics-conservation law *is* the mirror-conservation law)."""
        if self.auditor is not None:
            self.auditor.watch_metrics(collector)

    def _wire_probe(
        self, name: str, make_probe: Callable[[Any], ProbeFn], subject: Any
    ) -> None:
        """Probe *subject* under *name* once the monitor and it exist."""
        monitor = self.monitor
        if (monitor is not None and subject is not None
                and name not in monitor.probe_names()):
            monitor.add_probe(name, make_probe(subject))

    # -- services ----------------------------------------------------------------
    def deploy_service(
        self,
        service: Service,
        device_name: str,
        replicas: int = 1,
        native: bool = False,
        port: int | None = None,
    ) -> ServiceHost:
        """Host a stateless service on a device.

        Container services require a container-capable device; ``native``
        services (Fig. 4's blue boxes) run anywhere.
        """
        device = self.device(device_name)
        host = ServiceHost(
            self.kernel,
            device,
            service,
            self._get_transport(),
            replicas=replicas,
            native=native,
            port=port,
        )
        if native:
            device.register_native_service_host(host)
        else:
            device.register_service_host(host)
        self.registry.register(host)
        self._wire_host(host)
        return host

    # -- fast path -----------------------------------------------------------------
    def enable_fast_path(self, perf: PerfConfig | None = None) -> PerfConfig:
        """Turn on the service-layer fast path: frame dedup, result caching
        and micro-batching, per *perf* (defaults to :class:`PerfConfig`).

        With a config whose features are all off, this is a no-op and the
        home behaves bit-for-bit like one that never called it.
        """
        self._perf = perf or PerfConfig()
        self._wire()
        return self._perf

    def perf_stats(self) -> dict:
        """Aggregate fast-path statistics across the home: dedup counters
        per frame store, cache hit rates per host, and the batch-size
        distribution. All zeros while the fast path is off."""
        dedup = {
            "hits": 0, "misses": 0, "bytes_saved": 0, "retained": 0,
        }
        for device in self.devices.values():
            store = device.frame_store
            dedup["hits"] += store.dedup_hits
            dedup["misses"] += store.dedup_misses
            dedup["bytes_saved"] += store.dedup_bytes_saved
            dedup["retained"] += store.retained_count
        attempts = dedup["hits"] + dedup["misses"]
        dedup["ratio"] = dedup["hits"] / attempts if attempts else 0.0

        cache = {"hits": 0, "misses": 0, "by_service": {}}
        batching = {"dispatches": 0, "batched_items": 0, "size_counts": {}}
        for service_name in self.registry.service_names():
            for host in self.registry.hosts_of(service_name):
                cache["hits"] += host.cache_hits
                cache["misses"] += host.cache_misses
                if host.cache_hits or host.cache_misses:
                    entry = cache["by_service"].setdefault(
                        service_name, {"hits": 0, "misses": 0}
                    )
                    entry["hits"] += host.cache_hits
                    entry["misses"] += host.cache_misses
                for size, count in host.batch_size_counts.items():
                    batching["dispatches"] += count
                    batching["batched_items"] += size * count
                    batching["size_counts"][size] = (
                        batching["size_counts"].get(size, 0) + count
                    )
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        batching["avg_batch_size"] = (
            batching["batched_items"] / batching["dispatches"]
            if batching["dispatches"] else 1.0
        )
        return {"dedup": dedup, "cache": cache, "batching": batching}

    # -- data plane ----------------------------------------------------------------
    def enable_data_plane(
        self, config: DataPlaneConfig | None = None
    ) -> DataPlaneConfig:
        """Turn on the zero-copy data plane: per-device shared-memory frame
        arenas and pooled service replicas, per *config* (defaults to
        :class:`DataPlaneConfig` — pools on; ``replica_pool=False`` for
        arenas alone).

        Arena-backed stores hand out generation-counted handles so
        intra-device hops ship a fixed-size handle tuple instead of walking
        and pricing the payload tree; pooled hosts share the device's
        worker slots instead of statically partitioning them
        (``docs/PERF.md``).
        """
        self._data_plane = config or DataPlaneConfig()
        self._wire()
        return self._data_plane

    def data_plane_stats(self) -> dict:
        """Aggregate data-plane statistics across the home: arena
        allocation counters per device and replica-pool sharing counters.
        All zeros while the data plane is off."""
        arena = {
            "allocs": 0, "frees": 0, "live": 0, "bytes_in_use": 0,
            "peak_bytes": 0, "stale_accesses": 0, "by_device": {},
        }
        pool = {
            "grants": 0, "borrowed": 0, "revoked": 0, "backlog": 0,
            "by_device": {},
        }
        for name, device in self.devices.items():
            if device.arena is not None:
                stats = device.arena.stats()
                arena["by_device"][name] = stats
                arena["allocs"] += stats["allocs"]
                arena["frees"] += stats["frees"]
                arena["live"] += stats["live"]
                arena["bytes_in_use"] += stats["bytes_in_use"]
                arena["peak_bytes"] += stats["peak_bytes"]
                arena["stale_accesses"] += sum(stats["stale_accesses"].values())
            if device.replica_pool is not None:
                stats = device.replica_pool.stats()
                pool["by_device"][name] = stats
                pool["grants"] += stats["total_grants"]
                pool["borrowed"] += stats["borrowed_grants"]
                pool["revoked"] += sum(
                    lease.revoked_grants
                    for lease in device.replica_pool.leases.values()
                )
                pool["backlog"] += stats["backlog"]
        pool["borrow_ratio"] = (
            pool["borrowed"] / pool["grants"] if pool["grants"] else 0.0
        )
        return {"arena": arena, "pool": pool}

    # -- tracing -------------------------------------------------------------------
    def enable_tracing(self) -> TraceRecorder:
        """Turn on per-frame distributed tracing home-wide.

        Pipelines and service hosts report spans to one
        :class:`~repro.trace.recorder.TraceRecorder`. Tracing is passive
        — the recorder never schedules kernel events and trace headers ride
        outside the charged message envelope — so a traced run is
        bit-for-bit identical to an untraced one. Idempotent: a second call
        returns the existing recorder.
        """
        if self.tracer is None:
            self.tracer = TraceRecorder(self.kernel)
            self._wire()
        return self.tracer

    # -- auditing ------------------------------------------------------------------
    def enable_audit(self) -> InvariantAuditor:
        """Turn on the runtime invariant auditor home-wide.

        One :class:`~repro.audit.auditor.InvariantAuditor` watches the
        device frame stores and arenas, the transport, the pipelines'
        metrics collectors and the controllers, and observes the kernel
        for clock hygiene. Auditing is passive — the auditor never
        schedules events, consumes randomness or touches message sizes —
        so an audited run is bit-for-bit identical to an unaudited one
        (``docs/AUDIT.md``). Idempotent: a second call returns the
        existing auditor. Also reachable via ``REPRO_AUDIT=1`` in the
        environment, which audits every home without code changes.
        """
        if self.auditor is None:
            self.auditor = InvariantAuditor(self.kernel)
            self.auditor.attach_kernel(self.kernel)
            self._wire()
        return self.auditor

    def check_invariants(self) -> list[Violation]:
        """Run the auditor's checks now and return any *new* violations.

        Once the kernel has drained (``kernel.pending_events == 0``) the
        end-of-run laws are included: every frame reference released, no
        in-flight messages, no pending RPCs. Before that only the
        instantaneous conservation checks run — calling this mid-run never
        reports a still-working frame as a leak. Requires
        :meth:`enable_audit` to have been called (directly or via
        ``REPRO_AUDIT=1``)."""
        if self.auditor is None:
            raise ConfigError("call enable_audit() before check_invariants()")
        if self.kernel.pending_events == 0:
            return self.auditor.check_quiesce()
        return self.auditor.check_now()

    def enable_monitoring(self) -> Monitor:
        """Turn on the §7 future-work monitor: one probe per device,
        service host, pipeline and enabled feature, sampled every half
        second."""
        if self.monitor is None:
            self.monitor = Monitor(self.kernel)
            self._wire()
            self.monitor.start()
        return self.monitor

    def enable_optimizer(self, config: OptimizerConfig | None = None) -> OnlineOptimizer:
        """Turn on online placement re-optimization of the home's pipelines.

        The optimizer periodically re-scores each watched pipeline's
        placement against the capacity-aware cost model — calibrated with
        live metrics/trace data — and live-migrates modules when the
        predicted improvement clears the config's threshold (see
        :class:`~repro.pipeline.optimizer.OnlineOptimizer` and
        ``docs/PLACEMENT.md``). Also makes the ``"optimized"`` strategy in
        :meth:`plan`/:meth:`deploy_pipeline` use *config*'s knobs.
        Idempotent: a second call returns the existing optimizer.
        """
        if self.optimizer is None:
            self.optimizer = OnlineOptimizer(self, config)
            self._wire()
            self.optimizer.start()
        return self.optimizer

    def enable_autoscaling(self, policy: ScalingPolicy | None = None) -> AutoScaler:
        """Turn on the §7 future-work autoscaler over the service hosts."""
        if self.autoscaler is None:
            self.autoscaler = AutoScaler(self.kernel, policy)
            self._wire()
            self.autoscaler.start()
        return self.autoscaler

    def enable_slo(self, config: SLOConfig | None = None) -> SLOController:
        """Turn on the closed-loop SLO guardian (``docs/SLO.md``).

        A :class:`~repro.slo.controller.SLOController` periodically
        classifies every enrolled pipeline against its
        :class:`~repro.slo.spec.SLO` and actuates the reversible
        degradation ladder when it is overloaded; deploys through
        :meth:`deploy_pipeline` are priced by admission control first.
        Existing pipelines that declared an SLO at deploy time are
        enrolled immediately; a pipeline that declared none is left alone.
        Idempotent: a second call returns the existing controller.
        """
        if self.slo is None:
            self.slo = SLOController(self, config)
            self._wire()
            self.slo.start()
        return self.slo

    # -- live operations -----------------------------------------------------------
    def enable_liveops(self) -> LiveOpsManager:
        """Turn on live operations: hot module upgrades with canary
        mirroring, and per-frame version lineage (``docs/LIVEOPS.md``).

        One :class:`~repro.liveops.upgrade.LiveOpsManager` serves the home;
        each pipeline's wiring gets the lineage recorder, so each frame's
        path records which module and service versions touched it.
        Live-ops observation is passive (lineage never schedules events,
        consumes randomness or touches message sizes), so a home with
        live-ops enabled but no upgrade in flight runs bit-for-bit
        identically to one without it. Idempotent: a second call returns
        the existing manager.
        """
        if self.liveops is None:
            self.liveops = LiveOpsManager(self)
            self._wire()
        return self.liveops

    def upgrade_module(
        self,
        pipeline: Pipeline,
        module_name: str,
        policy: CanaryPolicy | None = None,
        module_instance: Module | None = None,
    ) -> ModuleUpgrade:
        """Hot-upgrade one module of a running pipeline.

        Deploys the candidate version beside the incumbent on the same
        device, mirrors live frames to it without touching the credit
        path, and (with an auto policy, the default) promotes it into the
        incumbent's address — zero frame loss — or rolls it back based on
        the mirrored traffic's health. Requires :meth:`enable_liveops`
        (called implicitly if needed). Returns the
        :class:`~repro.liveops.upgrade.ModuleUpgrade` handle.
        """
        manager = self.enable_liveops()
        return manager.start_upgrade(
            pipeline, module_name,
            policy=policy, module_instance=module_instance,
        )

    def liveops_status(self) -> dict:
        """Live upgrade report: every upgrade's state plus lineage
        counters. Requires :meth:`enable_liveops`."""
        if self.liveops is None:
            raise ConfigError("call enable_liveops() before liveops_status()")
        return self.liveops.status()

    def slo_status(self) -> dict:
        """Live SLO report: per-pipeline state, ladder depth and
        attainment, plus the admission counters. Requires
        :meth:`enable_slo`."""
        if self.slo is None:
            raise ConfigError("call enable_slo() before slo_status()")
        return self.slo.status()

    # -- faults & recovery --------------------------------------------------------
    def crash_device(self, name: str) -> None:
        """Hard-fail a device: power off its hosts, drop queued work, and
        make the network refuse traffic to and from it."""
        self.device(name).crash()
        self.topology.set_device_up(name, False)

    def restart_device(self, name: str) -> None:
        """Bring a crashed device back: network first, then its hosts."""
        device = self.device(name)
        self.topology.set_device_up(name, True)
        device.restart()

    def enable_failure_detection(
        self,
        home_device: str | None = None,
        period_s: float = 0.5,
        miss_threshold: int = 3,
    ) -> FailureDetector:
        """Turn on heartbeat-based failure detection from *home_device*
        (default: the first device): every other device answers heartbeats
        and is watched."""
        if self.detector is None:
            if not self.devices:
                raise ConfigError("add devices before enabling detection")
            home = home_device or next(iter(self.devices))
            if home not in self.devices:
                raise DeviceError(f"unknown device {home!r}")
            self.detector = FailureDetector(
                self.kernel,
                self._get_transport(),
                home,
                period_s=period_s,
                miss_threshold=miss_threshold,
            )
            self._wire()
            self.detector.start()
        return self.detector

    def enable_fault_injection(self, plan: FaultPlan) -> ChaosInjector:
        """Arm a fault plan against this home (one injector per home)."""
        if self.injector is not None:
            raise ConfigError("fault injection already enabled")
        self.injector = ChaosInjector(self, plan)
        self.injector.arm()
        return self.injector

    def enable_self_healing(
        self, pipeline: Pipeline, cooldown_s: float = 1.0
    ) -> Orchestrator:
        """Close the §7 loop for *pipeline*: failure detection, plus the
        remediation loop (over the monitor, created if needed) with a remedy
        that evacuates its modules off any device declared dead."""
        detector = self.enable_failure_detection()
        if self.orchestrator is None:
            self.orchestrator = Orchestrator(
                self.kernel, self.enable_monitoring()
            )
            self.orchestrator.start()
        self.orchestrator.add_remedy(
            evacuate_dead_device_remedy(
                self, pipeline, detector, cooldown_s=cooldown_s
            )
        )
        return self.orchestrator

    # -- pipelines ------------------------------------------------------------------
    def plan(
        self,
        config: PipelineConfig,
        strategy: str = COLOCATED,
        default_device: str | None = None,
        host_device: str | None = None,
    ) -> PlacementPlan:
        """Compute a placement without deploying (inspection/testing)."""
        if not self.devices:
            raise ConfigError("add a device before planning")
        first = next(iter(self.devices))
        default = default_device or first
        if strategy == COLOCATED:
            return plan_colocated(config, self.devices, self.registry, default)
        if strategy == SINGLE_HOST:
            return plan_single_host(config, self.devices, host_device or first)
        if strategy == OPTIMIZED:
            return plan_optimized(
                config, self.devices, self.registry, self.topology, default,
                optimizer=self.optimizer.config if self.optimizer else None,
            )
        raise ConfigError(f"unknown placement strategy {strategy!r}")

    def deploy_pipeline(
        self,
        config: PipelineConfig,
        strategy: str = COLOCATED,
        default_device: str | None = None,
        host_device: str | None = None,
        module_instances: dict[str, Module] | None = None,
        prefer_local_services: bool = True,
        placement: PlacementPlan | None = None,
        slo: SLO | None = None,
        admission: str = "check",
    ) -> Pipeline | None:
        """Place and deploy a pipeline; returns its handle.

        With :meth:`enable_slo` active, the deploy is priced by admission
        control first. *admission* selects what happens when the predicted
        cost would violate the threshold: ``"check"`` (default) raises
        :class:`~repro.errors.AdmissionError` carrying the typed
        :class:`~repro.slo.spec.AdmissionDecision`; ``"queue"`` parks the
        deploy until capacity returns (returns ``None`` — the SLO
        controller deploys it later); ``"bypass"`` skips the check. A
        *slo* given here enrolls the pipeline with the controller (now, or
        when :meth:`enable_slo` is later called).
        """
        if admission not in ("check", "queue", "bypass"):
            raise ConfigError(f"unknown admission mode {admission!r}")
        if self.deployer is None:
            self.deployer = Deployer(
                self.kernel, self._get_transport(), self.devices, self.registry
            )
        if placement is None:
            placement = self.plan(config, strategy, default_device, host_device)
        gated = self.slo is not None and admission != "bypass"
        if gated:
            decision = self.slo.admit(
                config, placement, queue=(admission == "queue")
            )
            if decision.action == REJECTED:
                raise AdmissionError(decision.reason, decision)
            if decision.action == QUEUED:
                self.slo.enqueue(config, slo, {
                    "strategy": strategy,
                    "default_device": default_device,
                    "host_device": host_device,
                    "module_instances": module_instances,
                    "prefer_local_services": prefer_local_services,
                })
                return None
        try:
            pipeline = self.deployer.deploy(
                config,
                placement,
                module_instances=module_instances,
                prefer_local_services=prefer_local_services,
            )
        except Exception:
            if gated:
                # admitted but never deployed: withdrawn, so admission
                # conservation still balances
                self.slo.on_deploy_failed()
            raise
        if gated:
            self.slo.on_deployed()
        self.pipelines.append(pipeline)
        if slo is not None:
            self._pending_slos[config.name] = slo
        self._wire_pipeline(pipeline)
        return pipeline

    def migrate_module(self, pipeline: Pipeline, module_name: str,
                       target_device: str) -> None:
        """Live-migrate a module (with its encapsulated state) to another
        device; peers re-route automatically through the shared wiring."""
        if self.deployer is None:
            raise ConfigError("nothing deployed yet")
        self.deployer.migrate(pipeline, module_name, target_device)

    # -- execution ----------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    def run(self, until: float | None = None) -> float:
        """Run the home until *until* (or until idle)."""
        return self.kernel.run(until=until)

    def run_for(self, seconds: float) -> float:
        """Run the home for *seconds* more simulated seconds."""
        return self.kernel.run(until=self.kernel.now + seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VideoPipe {len(self.devices)} devices,"
            f" services={self.registry.service_names()}>"
        )
