"""Events delivered to modules.

"Similar to other Function-as-a-Service platforms, modules in VideoPipe are
triggered on events. These events are either data arrival events or calls
from other modules" (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Event kinds.
DATA = "data"  # payload from an upstream module
READY_SIGNAL = "ready"  # flow-control: sink tells the source to send more


@dataclass(slots=True)
class ModuleEvent:
    """One triggering event for a module's ``event_received``."""

    kind: str
    payload: Any = None
    source_module: str | None = None
    headers: dict[str, Any] = field(default_factory=dict)
    enqueued_at: float = 0.0
    dequeued_at: float = 0.0
    #: False only when the message's size walk proved the payload holds no
    #: encoded frame: the worker then has nothing to land, and skips it
    lands: bool = True

    @property
    def queueing_delay(self) -> float:
        """Seconds from arrival to handler start (a ``load_stage``'s wait)."""
        return self.dequeued_at - self.enqueued_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleEvent {self.kind} from={self.source_module}>"
