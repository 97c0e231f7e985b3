"""Live operations: versioning, canary mirroring, hot module upgrades,
and per-frame version lineage (``docs/LIVEOPS.md``)."""

from .lineage import LineageRecorder
from .policy import CanaryPolicy
from .upgrade import (
    PROMOTED,
    ROLLED_BACK,
    LiveOpsManager,
    MirrorTap,
    ModuleUpgrade,
)

__all__ = [
    "CanaryPolicy",
    "LineageRecorder",
    "LiveOpsManager",
    "MirrorTap",
    "ModuleUpgrade",
    "PROMOTED",
    "ROLLED_BACK",
]
