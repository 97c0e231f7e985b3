"""The module abstraction — Table 1's interface, in Python.

A module is "a self-contained unit with encapsulated state" that "controls
the flow of video frames inside the video processing pipeline" (§2.1). The
paper runs each module's JavaScript in its own Duktape context; here each
module is a Python object whose callbacks run one event at a time on its
device's runtime (the same single-threaded-context semantics).

Table 1 mapping:

=====================================  =====================================
Paper (JavaScript)                     This library (Python)
=====================================  =====================================
``init()``                             :meth:`Module.init`
``event_received(message)``            :meth:`Module.event_received`
``call_service(service, message)``     ``ctx.call_service(name, payload)``
``call_module(module, message)``       ``ctx.call_module(name, payload)``
=====================================  =====================================

``event_received`` may be a plain method (fast, synchronous logic) or
return a generator — yield signals (e.g. service-call results) to suspend;
the runtime will not deliver the next event until the generator finishes,
preserving per-module serial execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .events import ModuleEvent

if TYPE_CHECKING:  # pragma: no cover
    from .context import ModuleContext


class Module:
    """Base class for pipeline modules. Subclass and override the hooks."""

    #: Reference CPU seconds of bookkeeping charged per delivered event
    #: (the interpreter/dispatch overhead of the Duktape context).
    event_overhead_s = 0.0002
    #: The Fig. 6 stage this module is: the runtime times each DATA handler
    #: that returns ok, from its start to its end, under this name.
    #: ``None`` (the default): the module is not timed.
    stage: str | None = None
    #: The stage of the wait before the handler (mailbox, landing,
    #: dispatch) — Fig. 6's "Load Frame". The request preparation of the
    #: module's ``service`` call (a remote frame's encode) moves from
    #: :attr:`stage` to it. ``None``: the wait is not timed.
    load_stage: str | None = None

    def init(self, ctx: "ModuleContext") -> None:
        """Called once at deployment on the target device (Table 1)."""

    def event_received(self, ctx: "ModuleContext", event: ModuleEvent) -> Any:
        """Called per arriving event (Table 1). Return a generator to run
        an asynchronous flow; anything else is treated as completed."""
        raise NotImplementedError

    def on_ready_signal(self, ctx: "ModuleContext", event: ModuleEvent) -> Any:
        """Flow-control hook: the sink's 'send next frame' signal (§2.3).

        Only meaningful on the source module; default ignores it.
        """

    def shutdown(self, ctx: "ModuleContext") -> None:
        """Called once when the module is torn down (pipeline stop, deploy
        rollback, replacement by an upgrade); sources stop capturing here."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class FunctionModule(Module):
    """Wrap a plain ``fn(ctx, event)`` as a module (tests, small pipelines)."""

    def __init__(self, fn, init_fn=None) -> None:
        self._fn = fn
        self._init_fn = init_fn

    def init(self, ctx: "ModuleContext") -> None:
        if self._init_fn is not None:
            self._init_fn(ctx)

    def event_received(self, ctx: "ModuleContext", event: ModuleEvent) -> Any:
        return self._fn(ctx, event)
