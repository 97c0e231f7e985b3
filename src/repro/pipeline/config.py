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
        result_cache: attach a result cache to hosts of ``cacheable``
            services; repeated requests skip execution entirely.
        batching: let hosts coalesce queued requests into batches for
            services with ``max_batch > 1``, at most four requests each.
        max_wait_s: longest a request waits for batch companions.
    """

    frame_dedup: bool = True
    result_cache: bool = True
    batching: bool = False
    max_wait_s: float = 0.004

    def __post_init__(self) -> None:
        if self.max_wait_s < 0:
            raise ConfigError("max_wait_s must be >= 0")


@dataclass(slots=True)
class DataPlaneConfig:
    """Knobs for the zero-copy frame plane and pooled service parallelism.

    Applied home-wide via
    :meth:`repro.core.videopipe.VideoPipe.enable_data_plane`, which always
    backs every device frame store with a generation-counted
    :class:`~repro.frames.arena.FrameArena` (intra-device hops cost a
    handle tuple; stale handle access raises
    :class:`~repro.errors.StaleHandleError`).

    Attributes:
        replica_pool: replace fixed per-host replica counts with a shared
            per-device :class:`~repro.services.pool.ReplicaPool` (one slot
            per CPU core), so services on one device share worker slots
            instead of statically partitioning them.
    """

    replica_pool: bool = True


@dataclass(slots=True)
class PipelineConfig:
    """A whole application: its module DAG plus the designated source.

    ``service_timeout_s`` caps every remote service call made by this
    pipeline's modules; ``None`` derives a per-target timeout from the
    link/compute budget (see
    :func:`repro.services.stubs.derive_service_timeout`).

    ``version`` labels the application revision as a whole; per-module
    versions live on each :class:`ModuleConfig` and move independently
    under hot upgrades (``docs/LIVEOPS.md``).
    """

    name: str
    modules: list[ModuleConfig] = field(default_factory=list)
    source: str | None = None
    service_timeout_s: float | None = None
    version: str = "v1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("pipeline needs a name")
        if not self.version:
            raise ConfigError("pipeline needs a non-empty version")
        if self.service_timeout_s is not None and self.service_timeout_s <= 0:
            raise ConfigError("service_timeout_s must be positive")
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
    unknown = set(data) - {
        "name", "source", "service_timeout_s", "version", "modules",
    }
    if unknown:
        raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
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
        version=data.get("version", "v1"),
    )
