"""Pipeline deployment: configuration + placement → running modules.

"VideoPipe prepares the required service stubs on each device and connects
different components together" (§3.1). The deployer resolves every module's
endpoint against its placed device, instantiates module code through the
registry, builds local-or-remote service stubs, and installs everything on
the per-device runtimes.
"""

from __future__ import annotations

from ..devices.device import Device
from ..errors import DeploymentError
from ..metrics.collector import MetricsCollector
from ..net.address import Address, parse_endpoint
from ..net.transport import Transport
from ..runtime.module import Module
from ..runtime.registry import create_module
from ..runtime.settlement import MIGRATE, ROLLBACK
from ..runtime.wiring import PipelineWiring
from ..services.registry import ServiceRegistry
from ..services.stubs import make_stub
from ..sim.kernel import Kernel
from .config import PipelineConfig
from .dag import validate
from .pipeline import Pipeline
from .placement import PlacementPlan


class Deployer:
    """Installs validated pipelines onto the home's devices."""

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        devices: dict[str, Device],
        registry: ServiceRegistry,
    ) -> None:
        self.kernel = kernel
        self.transport = transport
        self.devices = devices
        self.registry = registry

    def deploy(
        self,
        config: PipelineConfig,
        placement: PlacementPlan,
        module_instances: dict[str, Module] | None = None,
        prefer_local_services: bool = True,
    ) -> Pipeline:
        """Deploy *config* according to *placement*.

        ``module_instances`` overrides registry construction for specific
        modules (useful for pre-trained or test modules).
        ``prefer_local_services=False`` forces every service call remote —
        the pure service-oriented architecture the baseline embodies.
        """
        validate(config)
        module_instances = module_instances or {}

        wiring = PipelineWiring(
            pipeline_name=config.name,
            metrics=MetricsCollector(config.name),
        )
        wiring.source_module = config.source_module
        for module_cfg in config.modules:
            wiring.next_modules[module_cfg.name] = list(module_cfg.next_modules)
            wiring.versions[module_cfg.name] = module_cfg.version
            wiring.addresses[module_cfg.name] = self._resolve_address(
                module_cfg.endpoint, placement.device_of(module_cfg.name)
            )

        deployed = {}
        pipeline = Pipeline(
            config, placement, wiring, deployed,
            prefer_local_services=prefer_local_services,
        )
        try:
            for module_cfg in config.modules:
                device = self._device_of(placement.device_of(module_cfg.name))
                instance = module_instances.get(module_cfg.name)
                if instance is None:
                    instance = create_module(module_cfg.include, **module_cfg.params)
                runtime = device.runtime
                if runtime is None:
                    raise DeploymentError(
                        f"device {device.name!r} has no module runtime"
                    )
                deployed[module_cfg.name] = runtime.deploy(
                    module_cfg.name,
                    instance,
                    wiring.addresses[module_cfg.name],
                    wiring,
                    self._build_stubs(pipeline, module_cfg, device),
                )
        except Exception:
            # a failed deploy leaves the home clean: what init started is
            # stopped (a source module keeps capturing otherwise)
            pipeline._teardown(ROLLBACK)
            raise
        for module_cfg in config.modules:
            wiring.metrics.increment(
                f"module_version.{module_cfg.name}.{module_cfg.version}"
            )
        return pipeline

    # -- migration -----------------------------------------------------------------
    def migrate(self, pipeline: Pipeline, module_name: str,
                target_device: str) -> None:
        """Move a running module (with its encapsulated state) to another
        device — the relocation the uniform runtime makes possible (§2.1)
        and the §7 "automatic deployment" component needs.

        The module instance is undeployed, its service stubs are rebuilt
        for the new device (local vs remote may flip), the shared wiring is
        updated so peers route to the new address, and the instance is
        redeployed. Events still queued in the old mailbox are settled as
        dropped, like a real stop-and-move: senders see the brief gap.

        A message in flight to the old address during the move
        dead-letters. Either way a dropped frame's §2.3 credit comes back
        to the source when its last live copy ends
        (``runtime/settlement.py``), so the stream survives the move.
        """
        old_deployed = pipeline.module(module_name)
        module_cfg = pipeline.config.module(module_name)
        source_device = pipeline.placement.device_of(module_name)
        if source_device == target_device:
            return
        target = self._device_of(target_device)
        if target.runtime is None:
            raise DeploymentError(f"device {target_device!r} has no runtime")

        # stop the old instance; what it still had queued leaves with it
        old_deployed.runtime.undeploy(module_name)
        dropped = old_deployed.settle_queued(MIGRATE)
        if dropped:
            pipeline.metrics.increment("migration_dropped_events", dropped)

        # rewire and redeploy the same instance on the target
        new_address = Address(
            target_device, self.transport.ephemeral_port(target_device)
        )
        pipeline.wiring.addresses[module_name] = new_address
        stubs = self._build_stubs(pipeline, module_cfg, target)
        new_deployed = target.runtime.deploy(
            module_name, old_deployed.module, new_address, pipeline.wiring,
            stubs, run_init=False,
        )
        pipeline.placement.assignments[module_name] = target_device
        pipeline._deployed[module_name] = new_deployed
        pipeline.metrics.increment("migrations")

    # -- in-place swap (hot upgrade promotion) -----------------------------------
    def swap_module(
        self,
        pipeline: Pipeline,
        module_name: str,
        new_instance: Module,
        version: str,
        run_init: bool = False,
    ) -> None:
        """Atomically replace *module_name*'s instance in place.

        The hot-upgrade promotion primitive (``docs/LIVEOPS.md``): the new
        instance takes over the **same address** on the **same device**
        within one kernel callback, so peers keep routing unchanged and
        messages in flight deliver to the new version. Unlike
        :meth:`migrate`, events still queued in the old mailbox are *not*
        dropped — they are re-enqueued into the new instance's mailbox in
        order (same device, so their frame references stay valid): a swap
        loses no admitted frame.

        ``run_init=False`` (the default) re-hosts an instance that already
        ran ``init`` — the canary path warms v2 as a shadow deployment
        before promoting it.
        """
        old_deployed = pipeline.module(module_name)
        module_cfg = pipeline.config.module(module_name)
        runtime = old_deployed.runtime
        address = old_deployed.address
        runtime.undeploy(module_name)
        old_deployed.module.shutdown(old_deployed.ctx)
        stubs = self._build_stubs(pipeline, module_cfg, runtime.device)
        new_deployed = runtime.deploy(
            module_name, new_instance, address, pipeline.wiring, stubs,
            run_init=run_init,
        )
        salvaged = old_deployed.hand_over_queued(new_deployed)
        pipeline._deployed[module_name] = new_deployed
        pipeline.wiring.versions[module_name] = version
        module_cfg.version = version
        pipeline.metrics.increment(
            f"module_version.{module_name}.{version}"
        )
        if salvaged:
            pipeline.metrics.increment("swap_salvaged_events", salvaged)

    # -- helpers -----------------------------------------------------------------
    def _build_stubs(
        self, pipeline: Pipeline, module_cfg, device: Device
    ) -> dict:
        """Service stubs for *module_cfg* on *device*, honouring the
        pipeline's deploy-time ``prefer_local_services`` policy — a pure
        service-oriented pipeline must not silently flip local after a
        migration or upgrade."""
        return {
            service: make_stub(
                self.kernel, self.transport, self.registry, device, service,
                prefer_local=pipeline.prefer_local_services,
                timeout_s=pipeline.config.service_timeout_s,
            )
            for service in module_cfg.services
        }

    def _device_of(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise DeploymentError(f"unknown device {name!r} in placement")

    def _resolve_address(self, endpoint: str, device_name: str) -> Address:
        spec = parse_endpoint(endpoint)
        port = spec.port or self.transport.ephemeral_port(device_name)
        host = device_name if spec.host == "*" else spec.host
        if host != device_name:
            raise DeploymentError(
                f"endpoint {endpoint!r} names host {host!r} but placement"
                f" chose {device_name!r}; use 'bind#tcp://*:<port>' to follow"
                " placement"
            )
        return Address(device_name, port)
