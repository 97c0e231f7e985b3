"""Pipeline configuration model.

"Each application is specified as a Directed Acyclic Graph (DAG) by the
application developer" (§2); Listing 1 shows the concrete shape: each module
entry names its code (``include``), the services it calls, its endpoint, and
its ``next_module`` fan-out. :class:`PipelineConfig` is that document as
data; the parser (:mod:`repro.pipeline.parser`) produces it from text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError


@dataclass(slots=True)
class ModuleConfig:
    """One module entry from the configuration file.

    Attributes:
        name: unique module name within the pipeline.
        include: the module code reference (e.g. ``"./RepCounterModule.js"``),
            resolved through the runtime module registry.
        services: stateless services this module calls.
        endpoint: endpoint string, e.g. ``"bind#tcp://*:5861"``.
        next_modules: downstream module names (the DAG's out-edges).
        device: optional placement pin to a specific device.
        params: constructor parameters for the module class.
        version: the module code's version label, surfaced in wiring,
            lineage records and upgrade bookkeeping (``docs/LIVEOPS.md``).
    """

    name: str
    include: str
    services: list[str] = field(default_factory=list)
    endpoint: str = "bind#tcp://*:0"
    next_modules: list[str] = field(default_factory=list)
    device: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    version: str = "v1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("module entry needs a name")
        if not self.include:
            raise ConfigError(f"module {self.name!r} needs an include reference")
        if not self.version:
            raise ConfigError(f"module {self.name!r} needs a non-empty version")


@dataclass(slots=True)
class PerfConfig:
    """Knobs for the service-layer fast path (dedup, caching, batching).

    Applied home-wide via :meth:`repro.core.videopipe.VideoPipe.enable_fast_path`.
    All defaults reflect the paper's edge workload: dedup and the result
    cache on (static scenes are common), batching off (it only pays when a
    service is shared across pipelines).

    Attributes:
        frame_dedup: content-address device frame stores, collapsing
            byte-identical frames into one stored object.
        dedup_retain_limit: zero-refcount frames kept per store as dedup
            targets (0 disables retention).
        result_cache: attach a result cache to hosts of ``cacheable``
            services; repeated requests skip execution entirely.
        cache_max_entries: LRU capacity per host.
        cache_ttl_s: result expiry in simulated seconds (``None`` = never).
        batching: let hosts coalesce queued requests into batches for
            services with ``max_batch > 1``.
        max_batch: host-side cap on the batch size.
        max_wait_s: longest a request waits for batch companions.
    """

    frame_dedup: bool = True
    dedup_retain_limit: int = 32
    result_cache: bool = True
    cache_max_entries: int = 512
    cache_ttl_s: float | None = None
    batching: bool = False
    max_batch: int = 4
    max_wait_s: float = 0.004

    def __post_init__(self) -> None:
        if self.dedup_retain_limit < 0:
            raise ConfigError("dedup_retain_limit must be >= 0")
        if self.cache_max_entries < 1:
            raise ConfigError("cache_max_entries must be >= 1")
        if self.cache_ttl_s is not None and self.cache_ttl_s <= 0:
            raise ConfigError("cache_ttl_s must be positive")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ConfigError("max_wait_s must be >= 0")

    @property
    def any_enabled(self) -> bool:
        """Whether this config turns on any fast-path feature at all."""
        return self.frame_dedup or self.result_cache or self.batching


@dataclass(slots=True)
class DataPlaneConfig:
    """Knobs for the zero-copy frame plane and pooled service parallelism.

    Applied home-wide via
    :meth:`repro.core.videopipe.VideoPipe.enable_data_plane`. Both
    default on: the arena makes intra-device hops cost a handle tuple, the
    pool lets services on one device share worker slots instead of
    statically partitioning them.

    Attributes:
        arena: back every device frame store with a generation-counted
            :class:`~repro.frames.arena.FrameArena`; stale handle access
            raises :class:`~repro.errors.StaleHandleError`.
        arena_capacity_bytes: optional per-device arena byte budget
            (``None`` = unbounded; the store's slot capacity still binds).
        replica_pool: replace fixed per-host replica counts with a shared
            per-device :class:`~repro.services.pool.ReplicaPool`.
        pool_slots: physical slots per device pool (``None`` = one per
            CPU core).
    """

    arena: bool = True
    arena_capacity_bytes: int | None = None
    replica_pool: bool = True
    pool_slots: int | None = None

    def __post_init__(self) -> None:
        if (self.arena_capacity_bytes is not None
                and self.arena_capacity_bytes < 1):
            raise ConfigError("arena_capacity_bytes must be >= 1")
        if self.pool_slots is not None and self.pool_slots < 1:
            raise ConfigError("pool_slots must be >= 1")

    @property
    def any_enabled(self) -> bool:
        """Whether this config turns on any data-plane feature at all."""
        return self.arena or self.replica_pool


@dataclass(slots=True)
class TraceConfig:
    """Knobs for per-frame distributed tracing.

    Applied home-wide via :meth:`repro.core.videopipe.VideoPipe.enable_tracing`.
    Tracing is passive: the recorder never schedules kernel events and trace
    headers travel outside the charged message envelope, so a traced run is
    bit-for-bit identical to an untraced one (see ``docs/TRACING.md``).

    Attributes:
        max_spans: recorder capacity; spans past it are dropped (and
            counted in ``TraceRecorder.dropped_spans``) rather than growing
            memory without bound on long runs.
    """

    max_spans: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ConfigError("max_spans must be >= 1")


@dataclass(slots=True)
class AuditConfig:
    """Knobs for the runtime invariant auditor.

    Applied home-wide via :meth:`repro.core.videopipe.VideoPipe.enable_audit`.
    Auditing is passive, like tracing: the auditor observes kernel events and
    mirrors component bookkeeping but never schedules events, consumes
    randomness or touches message sizes, so an audited run is bit-for-bit
    identical to an unaudited one (see ``docs/AUDIT.md``).

    Attributes:
        max_violations: recorder capacity; violations past it are counted
            (``InvariantAuditor.dropped_violations``) but not stored, so a
            hot failing invariant cannot grow memory without bound.
        strict: raise :class:`~repro.errors.AuditError` at the first
            violation instead of recording it (useful in tests that want a
            loud, immediate failure).
    """

    max_violations: int = 1000
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_violations < 1:
            raise ConfigError("max_violations must be >= 1")


@dataclass(slots=True)
class PipelineConfig:
    """A whole application: its module DAG plus the designated source.

    ``service_timeout_s`` caps every remote service call made by this
    pipeline's modules; ``None`` derives a per-target timeout from the
    link/compute budget (see
    :func:`repro.services.stubs.derive_service_timeout`).

    ``balancing`` selects the replica-selection policy for this pipeline's
    remote service stubs (see :mod:`repro.services.balancer`); ``None``
    keeps the home default (``fastest``).

    ``version`` labels the application revision as a whole; per-module
    versions live on each :class:`ModuleConfig` and move independently
    under hot upgrades (``docs/LIVEOPS.md``).
    """

    name: str
    modules: list[ModuleConfig] = field(default_factory=list)
    source: str | None = None
    service_timeout_s: float | None = None
    balancing: str | None = None
    version: str = "v1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("pipeline needs a name")
        if not self.version:
            raise ConfigError("pipeline needs a non-empty version")
        if self.service_timeout_s is not None and self.service_timeout_s <= 0:
            raise ConfigError("service_timeout_s must be positive")
        if self.balancing is not None:
            from ..services.balancer import POLICIES

            if self.balancing not in POLICIES:
                raise ConfigError(
                    f"unknown balancing policy {self.balancing!r};"
                    f" known: {POLICIES}"
                )
        seen: set[str] = set()
        for module in self.modules:
            if module.name in seen:
                raise ConfigError(f"duplicate module name {module.name!r}")
            seen.add(module.name)

    def module(self, name: str) -> ModuleConfig:
        for module in self.modules:
            if module.name == name:
                return module
        raise ConfigError(f"pipeline {self.name!r} has no module {name!r}")

    def module_names(self) -> list[str]:
        return [m.name for m in self.modules]

    @property
    def source_module(self) -> str:
        """The source module name (explicit, or the first entry)."""
        if self.source is not None:
            return self.source
        if not self.modules:
            raise ConfigError(f"pipeline {self.name!r} has no modules")
        return self.modules[0].name

    def declared_services(self) -> list[str]:
        """Every service any module declares, deduplicated, sorted."""
        names = {service for m in self.modules for service in m.services}
        return sorted(names)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible)."""
        return {
            "name": self.name,
            "source": self.source,
            "service_timeout_s": self.service_timeout_s,
            "balancing": self.balancing,
            "version": self.version,
            "modules": [
                {
                    "name": m.name,
                    "include": m.include,
                    "services": list(m.services),
                    "endpoint": m.endpoint,
                    "next_modules": list(m.next_modules),
                    "device": m.device,
                    "params": dict(m.params),
                    "version": m.version,
                }
                for m in self.modules
            ],
        }


def config_from_dict(data: dict[str, Any]) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from its plain-dict/JSON form."""
    if "name" not in data:
        raise ConfigError("pipeline dict needs a 'name'")
    modules = []
    for entry in data.get("modules", []):
        unknown = set(entry) - {
            "name", "include", "services", "service", "endpoint",
            "next_modules", "next_module", "device", "params", "version",
        }
        if unknown:
            raise ConfigError(f"unknown module config keys: {sorted(unknown)}")
        next_modules = entry.get("next_modules", entry.get("next_module", []))
        if isinstance(next_modules, str):
            next_modules = [next_modules]
        services = entry.get("services", entry.get("service", []))
        if isinstance(services, str):
            services = [services]
        modules.append(
            ModuleConfig(
                name=entry.get("name", ""),
                include=entry.get("include", ""),
                services=list(services),
                endpoint=entry.get("endpoint", "bind#tcp://*:0"),
                next_modules=list(next_modules),
                device=entry.get("device"),
                params=dict(entry.get("params", {})),
                version=entry.get("version", "v1"),
            )
        )
    return PipelineConfig(
        name=data["name"], modules=modules, source=data.get("source"),
        service_timeout_s=data.get("service_timeout_s"),
        balancing=data.get("balancing"),
        version=data.get("version", "v1"),
    )
