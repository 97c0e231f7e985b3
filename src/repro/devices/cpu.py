"""The device CPU model: contended, heterogeneous, slightly noisy.

Every piece of simulated work — codec passes, module logic, service
inference — occupies one core for the work's reference duration scaled by
the device's :attr:`~repro.devices.spec.DeviceSpec.cpu_factor`, with
lognormal jitter. Contention emerges naturally: more concurrent work than
cores means queueing, which is exactly why the paper offloads pose detection
from the phone ("computational resources on the phone are not adequate for
pose detection", §4.1).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..sim.kernel import Kernel
from ..sim.resources import Resource
from ..sim.rng import lognormal_params
from ..sim.signals import Signal
from .spec import DeviceSpec


class Cpu:
    """A core pool executing reference-time work items."""

    def __init__(
        self,
        kernel: Kernel,
        spec: DeviceSpec,
        rng: np.random.Generator | Callable[[], np.random.Generator],
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        #: the jitter stream, or the call that builds it at the first draw
        #: (seeding one costs tens of µs, and an idle device never draws)
        self._rng = rng
        self.cores = Resource(kernel, spec.cores, name=f"{spec.name}.cpu")
        #: ``lognormal_params(mean, compute_jitter_cv)`` per mean duration
        #: drawn — one entry per distinct job size on this core pool
        self._jitter: dict[float, tuple[float, float] | None] = {}

    def execute(self, reference_seconds: float, priority: int = 0) -> Signal:
        """Run a job that takes *reference_seconds* on the reference machine.

        Returns the job's :meth:`~repro.sim.resources.Resource.hold` on a
        core: it resolves with the actual duration in the job's last event,
        after the core is released. The core is requested at the call and
        the job queues if all cores are busy.
        """
        return self.cores.hold(
            self._draw(self.spec.compute_time(reference_seconds)), priority)

    def execute_fixed(self, seconds: float, priority: int = 0) -> Signal:
        """Run a job whose duration does **not** scale with ``cpu_factor``
        — hardware-accelerated work such as JPEG encode/decode, which every
        device in the paper's testbed offloads to a codec block. The job
        still occupies a core (drives contention) and keeps jitter.
        """
        return self.cores.hold(self._draw(seconds), priority)

    def sample_duration(self, reference_seconds: float) -> float:
        """Draw the actual duration for a reference-time job (no queueing)."""
        return self._draw(self.spec.compute_time(reference_seconds))

    def _draw(self, mean: float) -> float:
        """``lognormal_around(rng, mean, compute_jitter_cv)``, with the
        lognormal's parameters computed once per *mean*."""
        try:
            params = self._jitter[mean]
        except KeyError:
            params = self._jitter[mean] = lognormal_params(
                mean, self.spec.compute_jitter_cv
            )
        if params is None:
            return mean
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return self._rng.lognormal(*params)

    @property
    def jobs_completed(self) -> int:
        """Jobs run to their end on this core pool."""
        return self.cores.holds_completed

    @property
    def busy_seconds(self) -> float:
        """Core-seconds those jobs held, summed in completion order."""
        return self.cores.held_seconds

    def utilization(self) -> float:
        """Average busy fraction across cores since creation."""
        return self.cores.utilization()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cpu {self.spec.name} {self.cores.in_use}/{self.spec.cores} busy>"
