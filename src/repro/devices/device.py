"""A device: the unit that joins the network and hosts runtime components.

Each :class:`Device` owns a CPU model, a frame store (the reference-id pool
shared by co-located modules and services), and — once the deployer places
them — a module runtime and zero or more service hosts.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DeviceError
from ..frames.framestore import FrameStore
from ..sim.kernel import Kernel
from ..sim.rng import RngStreams, ScopedRng
from .cpu import Cpu
from .spec import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.moduleruntime import ModuleRuntime
    from ..services.host import ServiceHost


class Device:
    """One edge device participating in pipelines."""

    def __init__(
        self,
        kernel: Kernel,
        spec: DeviceSpec,
        rng: RngStreams | ScopedRng,
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        self.rng = rng.spawn(f"device/{spec.name}")
        self.cpu = Cpu(kernel, spec, partial(self.rng.stream, "cpu"))
        self.frame_store = FrameStore(spec.name, capacity=512)
        #: Filled by the deployer.
        self.runtime: "ModuleRuntime | None" = None
        self.service_hosts: dict[str, "ServiceHost"] = {}
        #: The device's shared-memory frame arena, or ``None`` until
        #: :meth:`enable_arena` backs the frame store with one.
        self.arena = None
        #: The device's shared replica pool, or ``None`` until
        #: :meth:`enable_replica_pool` creates it.
        self.replica_pool = None
        #: Power state; flipped by :meth:`crash` / :meth:`restart`.
        self.up = True
        self.crash_count = 0

    @property
    def name(self) -> str:
        return self.spec.name

    # -- failure lifecycle -----------------------------------------------------
    def crash(self) -> None:
        """Power loss: every hosted service drops its in-flight work and
        unbinds its endpoint; queued module events are lost with RAM.
        Idempotent. The network side (refusing deliveries) is handled by
        :meth:`Topology.set_device_up`, which callers flip alongside this —
        see :meth:`repro.core.videopipe.VideoPipe.crash_device`."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        for host in self.service_hosts.values():
            host.crash()
        if self.runtime is not None:
            self.runtime.drop_queued_events()

    def restart(self) -> None:
        """Power restored: service hosts rebind and accept work again.
        Idempotent."""
        if self.up:
            return
        self.up = True
        for host in self.service_hosts.values():
            host.restart()

    # -- perf subsystems ------------------------------------------------------
    def enable_arena(self):
        """Back this device's frame store with a generation-counted
        :class:`~repro.frames.arena.FrameArena` (idempotent; returns it)."""
        if self.arena is None:
            from ..frames.arena import FrameArena

            self.arena = FrameArena(self.name)
            self.frame_store.attach_arena(self.arena)
        return self.arena

    def enable_replica_pool(self, slots: int | None = None):
        """Create the device's shared :class:`~repro.services.pool
        .ReplicaPool` (one slot per core by default; idempotent) and attach
        every currently idle service host to it. Returns the pool."""
        if self.replica_pool is None:
            from ..services.pool import ReplicaPool

            self.replica_pool = ReplicaPool.for_device(
                self.kernel, self, slots=slots
            )
        for host in self.service_hosts.values():
            if host.pool is None:
                host.attach_pool(self.replica_pool)
        return self.replica_pool

    @property
    def supports_containers(self) -> bool:
        return self.spec.supports_containers

    def local_rng(self, purpose: str) -> np.random.Generator:
        """A deterministic RNG stream scoped to this device and purpose."""
        return self.rng.stream(purpose)

    def register_service_host(self, host: "ServiceHost") -> None:
        """Attach a container service host (container-capable devices only)."""
        if not self.supports_containers:
            raise DeviceError(
                f"{self.name!r} ({self.spec.kind}) cannot run containers;"
                " services must be placed on a container-capable device"
            )
        if host.service_name in self.service_hosts:
            raise DeviceError(
                f"service {host.service_name!r} already hosted on {self.name!r}"
            )
        self.service_hosts[host.service_name] = host

    def register_native_service_host(self, host: "ServiceHost") -> None:
        """Attach a *native* service (paper Fig. 4's blue boxes): lightweight
        services that run outside containers and so fit any device."""
        if host.service_name in self.service_hosts:
            raise DeviceError(
                f"service {host.service_name!r} already hosted on {self.name!r}"
            )
        self.service_hosts[host.service_name] = host

    def has_service(self, service_name: str) -> bool:
        return service_name in self.service_hosts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        containers = "containers" if self.supports_containers else "no-containers"
        return f"<Device {self.name} ({self.spec.kind}, {containers})>"
