"""Pipeline wiring: the routing state shared by one deployed pipeline.

Built by the deployer from the configuration DAG: where every module lives,
who follows whom, which module is the source (the flow-control signal
target), and where this pipeline's metrics are collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import DeploymentError
from ..metrics.collector import MetricsCollector
from ..net.address import Address


@dataclass(slots=True)
class PipelineWiring:
    """Routing and bookkeeping for one running pipeline."""

    pipeline_name: str
    #: module name -> bound address (after placement resolution).
    addresses: dict[str, Address] = field(default_factory=dict)
    #: module name -> configured downstream module names.
    next_modules: dict[str, list[str]] = field(default_factory=dict)
    #: the module that owns the video source (flow-control signal target).
    source_module: str | None = None
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    #: free-form log of (time, module, text) entries.
    logs: list[tuple[float, str, str]] = field(default_factory=list)
    #: who the frame events go to (``runtime/observe.py``): the tracer, the
    #: lineage recorder and the auditor's frame mirror, each while its
    #: feature is on (built by ``VideoPipe._wire*`` alone).
    observers: tuple = ()
    #: module name -> deployed code version (mirrors the module configs at
    #: deploy time; a hot upgrade rewrites one entry at promotion).
    versions: dict[str, str] = field(default_factory=dict)
    #: the source module's current deployment, which a credit no ready
    #: signal carries is handed to (set by ``ModuleRuntime.deploy``).
    source: Any = None
    #: frames a settlement ended whose §2.3 credit has not come back yet —
    #: paid to the source when the frame's last live copy ends.
    credits_owed: set[int] = field(default_factory=set)
    #: copy id -> payload of each DATA message sent and not yet handled or
    #: settled (``runtime/settlement.py`` alone reads and writes both).
    live_copies: dict[int, Any] = field(default_factory=dict)

    def address_of(self, module_name: str) -> Address:
        try:
            return self.addresses[module_name]
        except KeyError:
            raise DeploymentError(
                f"pipeline {self.pipeline_name!r} has no module"
                f" {module_name!r}; known: {sorted(self.addresses)}"
            )

    def downstream_of(self, module_name: str) -> list[str]:
        return list(self.next_modules.get(module_name, []))

    def device_of(self, module_name: str) -> str:
        return self.address_of(module_name).device

    def version_of(self, module_name: str) -> str:
        return self.versions.get(module_name, "v1")
