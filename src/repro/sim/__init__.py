"""Discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction: device
CPUs, Wi-Fi links, module runtimes and services all schedule their work on a
shared :class:`Kernel`. Swapping in :class:`RealtimeKernel` runs the same
system paced against the wall clock.
"""

from .events import LOW, NORMAL, URGENT, Event
from .kernel import Kernel, RealtimeKernel
from .process import Process
from .resources import Grant, Resource
from .rng import RngStreams, ScopedRng, lognormal_around
from .signals import Signal

__all__ = [
    "Event",
    "Grant",
    "Kernel",
    "LOW",
    "NORMAL",
    "Process",
    "RealtimeKernel",
    "Resource",
    "RngStreams",
    "ScopedRng",
    "Signal",
    "URGENT",
    "lognormal_around",
]
