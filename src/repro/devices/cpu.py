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

import numpy as np

from ..sim.kernel import Kernel
from ..sim.resources import Resource
from ..sim.rng import lognormal_around
from ..sim.signals import Signal
from .spec import DeviceSpec


class Cpu:
    """A core pool executing reference-time work items."""

    def __init__(self, kernel: Kernel, spec: DeviceSpec, rng: np.random.Generator) -> None:
        self.kernel = kernel
        self.spec = spec
        self.rng = rng
        self.cores = Resource(kernel, spec.cores, name=f"{spec.name}.cpu")
        self.jobs_completed = 0
        self.busy_seconds = 0.0

    def execute(self, reference_seconds: float, priority: int = 0) -> Signal:
        """Run a job that takes *reference_seconds* on the reference machine.

        Returns a signal resolving (with the actual duration) when the job
        finishes; the job queues if all cores are busy. The signal *is* the
        job's ``Process.done``: it fails if the job dies.
        """
        duration = self.sample_duration(reference_seconds)
        return self.kernel.process(self._run(duration, priority), name="cpu.job").done

    def execute_fixed(self, seconds: float, priority: int = 0) -> Signal:
        """Run a job whose duration does **not** scale with ``cpu_factor``
        — hardware-accelerated work such as JPEG encode/decode, which every
        device in the paper's testbed offloads to a codec block. The job
        still occupies a core (drives contention) and keeps jitter.
        """
        if seconds == 0.0:
            duration = 0.0
        else:
            duration = lognormal_around(self.rng, seconds, self.spec.compute_jitter_cv)
        return self.kernel.process(self._run(duration, priority), name="cpu.fixed").done

    def sample_duration(self, reference_seconds: float) -> float:
        """Draw the actual duration for a reference-time job (no queueing)."""
        scaled = self.spec.compute_time(reference_seconds)
        if scaled == 0.0:
            return 0.0
        return lognormal_around(self.rng, scaled, self.spec.compute_jitter_cv)

    def _run(self, duration: float, priority: int):
        grant = yield self.cores.request(priority=priority)
        yield duration
        self.cores.release(grant)
        self.jobs_completed += 1
        self.busy_seconds += duration
        return duration

    def utilization(self) -> float:
        """Average busy fraction across cores since creation."""
        return self.cores.utilization()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cpu {self.spec.name} {self.cores.in_use}/{self.spec.cores} busy>"
