"""Per-frame lineage: which module and service versions touched each frame.

A rolling upgrade makes "what code processed this output?" a real
question — during the canary phase two versions of one module are live at
once, and after a promotion old and new frames in one run crossed
different code. The recorder answers it per frame, passively: it
subscribes to the frame events (``runtime/observe.py``), and as each DATA
event reaches its handler it appends a
``(module, version, device, service versions)`` step to that frame's
path. Like tracing and auditing, lineage never schedules kernel events,
never consumes randomness and never touches message sizes, so a recorded
run is bit-for-bit identical to an unrecorded one.

The export (:meth:`LineageRecorder.as_dict`, JSON-ready) is an artifact
meant to sit beside the Perfetto trace: one entry per frame, each a list
of steps in processing order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..frames.payloads import frame_ids_in
from ..runtime.events import DATA
from ..runtime.observe import FrameObserver

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.context import ModuleContext
    from ..runtime.events import ModuleEvent
    from ..sim.kernel import Kernel


class LineageRecorder(FrameObserver):
    """Passive per-frame version-lineage sink for one home.

    Attributes:
        touches: total lineage steps recorded.
        dropped_frames: frames evicted past ``max_frames`` (oldest first).
    """

    def __init__(self, kernel: "Kernel", max_frames: int = 20_000) -> None:
        self.kernel = kernel
        self.max_frames = max_frames
        #: (pipeline, frame_id) -> ordered list of lineage steps.
        self._records: dict[tuple[str, int], list[dict[str, Any]]] = {}
        self.touches = 0
        self.dropped_frames = 0

    # -- recording ------------------------------------------------------------
    def handler_start(self, ctx: "ModuleContext", event: "ModuleEvent") -> None:
        """Record that *ctx*'s module is handling a DATA *event* now.

        One step is appended to every frame the payload carries. The step
        captures the module's deployed version (from the pipeline wiring)
        and the versions of every service the module's stubs currently
        resolve to — the exact code a call from this step would reach.
        """
        frame_ids = frame_ids_in(event.payload) if event.kind == DATA else ()
        if not frame_ids:
            return
        services: dict[str, str] = {}
        for service_name, stub in ctx._stubs.items():
            host = getattr(stub, "host", None)
            if host is not None:
                services[service_name] = host.service.version
        step = {
            "t": self.kernel.now,
            "module": ctx.module_name,
            "version": ctx.wiring.version_of(ctx.module_name),
            "device": ctx.device_name,
            "services": services,
        }
        pipeline = ctx.pipeline_name
        for frame_id in frame_ids:
            self.touch(pipeline, frame_id, step)

    def touch(
        self, pipeline: str, frame_id: int, step: dict[str, Any]
    ) -> None:
        """Append one lineage *step* to ``(pipeline, frame_id)``'s path."""
        key = (pipeline, frame_id)
        path = self._records.get(key)
        if path is None:
            while len(self._records) >= self.max_frames:
                self._records.pop(next(iter(self._records)))
                self.dropped_frames += 1
            path = self._records[key] = []
        path.append(step)
        self.touches += 1

    # -- reading -------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        return len(self._records)

    def path_of(self, pipeline: str, frame_id: int) -> list[dict[str, Any]]:
        """The recorded steps for one frame, oldest first (empty when the
        frame was never touched or was evicted)."""
        return list(self._records.get((pipeline, frame_id), []))

    def versions_of(self, pipeline: str, frame_id: int) -> list[str]:
        """The ``module@version`` chain one frame crossed, in order."""
        return [
            f"{step['module']}@{step['version']}"
            for step in self._records.get((pipeline, frame_id), [])
        ]

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form of everything recorded (the export payload)."""
        frames = [
            {"pipeline": pipeline, "frame_id": frame_id, "path": list(path)}
            for (pipeline, frame_id), path in self._records.items()
        ]
        return {
            "touches": self.touches,
            "frames_recorded": len(frames),
            "frames_evicted": self.dropped_frames,
            "frames": frames,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LineageRecorder {len(self._records)} frames,"
            f" {self.touches} touches>"
        )
