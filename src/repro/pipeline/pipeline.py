"""The handle to one running pipeline."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import DeploymentError
from ..metrics.collector import MetricsCollector
from ..runtime.settlement import STOP
from ..runtime.wiring import PipelineWiring
from .config import PipelineConfig
from .placement import PlacementPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.moduleruntime import DeployedModule


class Pipeline:
    """A deployed, running pipeline: inspect it, read metrics, stop it."""

    def __init__(
        self,
        config: PipelineConfig,
        placement: PlacementPlan,
        wiring: PipelineWiring,
        deployed: dict[str, "DeployedModule"],
        prefer_local_services: bool = True,
    ) -> None:
        self.config = config
        self.placement = placement
        self.wiring = wiring
        self._deployed = deployed
        self.stopped = False
        #: The deploy-time service-stub policy. Migrations and upgrades
        #: rebuild stubs with this same policy — a ``False`` (pure
        #: service-oriented) pipeline must not silently flip to
        #: local-preferred stubs when a module moves.
        self.prefer_local_services = prefer_local_services

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def metrics(self) -> MetricsCollector:
        return self.wiring.metrics

    def module(self, name: str) -> "DeployedModule":
        try:
            return self._deployed[name]
        except KeyError:
            raise DeploymentError(f"pipeline {self.name!r} has no module {name!r}")

    def module_names(self) -> list[str]:
        return sorted(self._deployed)

    def module_instance(self, name: str):
        """The underlying :class:`~repro.runtime.module.Module` object."""
        return self.module(name).module

    def device_of(self, module_name: str) -> str:
        return self.placement.device_of(module_name)

    def stop(self) -> None:
        """Shut down and undeploy every module, settling whatever is still
        queued in their mailboxes (idempotent)."""
        if not self.stopped:
            self._teardown(STOP)

    def _teardown(self, reason: str) -> None:
        self.stopped = True
        for name, deployed in self._deployed.items():
            deployed.module.shutdown(deployed.ctx)
            deployed.runtime.undeploy(name)
            deployed.settle_queued(reason)

    def describe(self) -> dict:
        """A structured summary (modules, devices, edges, counters)."""
        return {
            "pipeline": self.name,
            "strategy": self.placement.strategy,
            "modules": {
                name: {
                    "device": self.placement.device_of(name),
                    "address": str(self.wiring.address_of(name)),
                    "next": self.wiring.downstream_of(name),
                    "events": self._deployed[name].events_processed,
                    "version": self.wiring.version_of(name),
                }
                for name in sorted(self._deployed)
            },
            "counters": self.metrics.counters(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "stopped" if self.stopped else "running"
        return f"<Pipeline {self.name} ({self.placement.strategy}, {state})>"
