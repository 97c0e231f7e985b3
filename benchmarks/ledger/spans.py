"""Spans recorded from outside the program, for one traced repeat.

The ledger wraps a fixed table of public entry points at layer boundaries
(:data:`ENTRY_POINTS`) for the duration of one repeat and records a span —
name, start, end, parent — per call, plus phase spans around its own calls
(job, build, run, report). Spans stay in memory (four parallel arrays, 24
bytes a span) and are written as Chrome-trace JSON when the workload ends.

Simulated processes are generators the kernel resumes from inside
``Kernel.step``; no method wrapper can see their bodies. The public factory
``Kernel.process`` is wrapped instead, so every generator handed to it is
recorded as one span per resume, under the layer that owns its code.

A layer's self time is its spans' duration minus the part their children
cover, minus the measured cost of the wrappers themselves. What
``Kernel.step`` hands to no child — the queue, ``Process`` resume and
``Signal`` dispatch glue — is ``sim`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from .table import SHARE_LAYERS

#: (layer, module, class or None for a module-level function, attribute).
#: ``"*"`` wraps every public method the class itself defines — used for
#: the two observers, whose whole surface is hook callbacks. A method is
#: wrapped on the named class and on every subclass that overrides it.
ENTRY_POINTS: list[tuple[str, str, str | None, str]] = [
    ("sim", "repro.sim.kernel", "Kernel", "run"),
    ("sim", "repro.sim.kernel", "Kernel", "step"),
    ("sim", "repro.sim.kernel", "Kernel", "schedule"),
    ("sim", "repro.sim.kernel", "Kernel", "timeout"),
    ("sim", "repro.sim.signals", "Signal", "succeed"),
    ("sim", "repro.sim.resources", "Resource", "request"),
    ("sim", "repro.sim.resources", "Resource", "release"),
    ("net", "repro.net.transport", "Transport", "send"),
    ("net", "repro.net.link", "Link", "transfer"),
    ("net", "repro.net.rpc", "RpcClient", "call"),
    ("net", "repro.net.wire", None, "payload_size"),
    ("runtime", "repro.runtime.moduleruntime", "ModuleRuntime",
     "send_to_module"),
    ("runtime", "repro.runtime.context", "ModuleContext", "call_service"),
    ("runtime", "repro.runtime.context", "ModuleContext", "call_next"),
    ("services", "repro.services.host", "ServiceHost", "call_local"),
    ("services", "repro.services.stubs", "ServiceStub", "call"),
    ("services", "repro.services.base", "Service", "handle"),
    ("frames", "repro.frames.framestore", "FrameStore", "put"),
    ("frames", "repro.frames.framestore", "FrameStore", "get"),
    ("frames", "repro.frames.framestore", "FrameStore", "release"),
    ("frames", "repro.frames.codec", None, "encode_frame"),
    ("frames", "repro.frames.codec", None, "decode_frame"),
    ("frames", "repro.frames.digest", None, "content_digest"),
    ("frames", "repro.frames.video_source", "SyntheticCamera", "capture"),
    ("motion", "repro.motion.trajectory", None, "subject_pose"),
    ("vision", "repro.vision.pose_estimator", "PoseEstimator", "estimate"),
    ("vision", "repro.vision.activity", "ActivityRecognizer",
     "classify_feature"),
    ("vision", "repro.vision.repcounter", "RepCounter", "count_features"),
    ("pipeline", "repro.pipeline.optimizer", None, "plan_optimized"),
    ("pipeline", "repro.core.videopipe", "VideoPipe", "deploy_pipeline"),
    ("core", "repro.core.videopipe", "VideoPipe", "add_device"),
    ("core", "repro.core.videopipe", "VideoPipe", "deploy_service"),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     "frame_entered"),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     "frame_completed"),
    ("metrics", "repro.metrics.collector", "MetricsCollector",
     "frame_dropped"),
    ("trace", "repro.trace.recorder", "TraceRecorder", "*"),
    ("audit", "repro.audit.auditor", "InvariantAuditor", "*"),
]

#: The layer the ledger's own phase spans (job, build, run, report) belong to.
PHASE_LAYER = "core"


def layer_of_code(code: types.CodeType) -> str:
    """The layer that owns a generator's code: its ``repro`` sub-package
    (the fleet's stage modules are application code; packages that are not
    a share layer fall to ``core``)."""
    _, found, tail = code.co_filename.replace("\\", "/").rpartition("/repro/")
    package = tail.split("/")[0] if found else ""
    if package == "fleet":
        return "apps"
    return package if package in SHARE_LAYERS else "core"


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: index of the innermost open span (-1 outside any span); a list so
        #: every wrapper closure shares the one cell
        self._top = [-1]
        self.name_list: list[str] = []
        self.layer_list: list[str] = []
        #: per name: True for the ledger's own phase spans (no wrapper cost)
        self.phase_list: list[bool] = []
        self._name_ids: dict[str, int] = {}
        #: bytes handed to ``Link.transfer`` while installed
        self.link_bytes = [0]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def name_id(self, name: str, layer: str, phase: bool = False) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_list)
            self.name_list.append(name)
            self.layer_list.append(layer)
            self.phase_list.append(phase)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """*fn* recorded as one span per call, its metadata kept (an event
        callback is still classified by its real ``__module__``)."""
        return functools.wraps(fn)(self._spanned(fn, self.name_id(name, layer)))

    def _spanned(self, fn: Callable, name_id: int) -> Callable:
        """The clock is read after the entry bookkeeping and before the exit
        bookkeeping, so a span holds only the call; the bookkeeping lands in
        the parent's interval, where :meth:`analyse` subtracts it per
        child."""
        names, parents = self.names.append, self.parents.append
        starts, ends, top = self.starts, self.ends, self._top
        clock = perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            parent = top[0]
            names(name_id)
            parents(parent)
            starts.append(0.0)
            ends.append(0.0)
            top[0] = index
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[index] = t0
                ends[index] = t1
                top[0] = parent

        return wrapper

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A span around the ledger's own calls."""
        index = len(self.starts)
        parent = self._top[0]
        self.names.append(self.name_id(name, PHASE_LAYER, phase=True))
        self.parents.append(parent)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._top[0] = index
        try:
            yield
        finally:
            self.ends[index] = perf_counter()
            self._top[0] = parent

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch_function(layer, module, attr)
                continue
            cls = getattr(module, class_name)
            if attr == "*":
                attrs = [
                    key for key, value in vars(cls).items()
                    if not key.startswith("_")
                    and isinstance(value, types.FunctionType)
                ]
            else:
                attrs = [attr]
            for one in attrs:
                for klass in (cls, *_subclasses(cls)):
                    if isinstance(vars(klass).get(one), types.FunctionType):
                        self._patch_attr(
                            klass, one, layer, f"{klass.__name__}.{one}"
                        )
        self._count_link_bytes()
        self._span_processes()

    def _patch_attr(self, owner: Any, attr: str, layer: str, name: str) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer))

    def _patch_function(self, layer: str, module: Any, attr: str) -> None:
        """Replace a module-level function everywhere ``repro`` has bound
        it (``from .wire import payload_size`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, attr, layer)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _count_link_bytes(self) -> None:
        from repro.net.link import Link

        spanned = vars(Link)["transfer"]
        total = self.link_bytes

        @functools.wraps(spanned)
        def transfer(link: Any, nbytes: int) -> Any:
            total[0] += nbytes
            return spanned(link, nbytes)

        self._undo.append((Link, "transfer", spanned))
        Link.transfer = transfer

    def _span_processes(self) -> None:
        from repro.sim.kernel import Kernel

        original = vars(Kernel)["process"]
        recorder = self

        class SpannedGenerator:
            """What ``Process`` needs of a generator — ``send``, ``throw``,
            ``__name__`` — each resume recorded as a span."""

            __slots__ = ("send", "throw", "__name__")

            def __init__(self, gen: Any) -> None:
                code = gen.gi_code
                name_id = recorder.name_id(
                    f"{gen.__qualname__} (process)", layer_of_code(code)
                )
                self.send = recorder._spanned(gen.send, name_id)
                self.throw = recorder._spanned(gen.throw, name_id)
                self.__name__ = gen.__name__

        @functools.wraps(original)
        def process(kernel: Any, gen: Any, name: str | None = None) -> Any:
            if isinstance(gen, types.GeneratorType):
                gen = SpannedGenerator(gen)
            return original(kernel, gen, name)

        self._undo.append((Kernel, "process", original))
        Kernel.process = process

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------
    def analyse(self, inner_s: float, outer_s: float) -> "SpanSummary":
        """Self time per name and per layer.

        *inner_s* is what a wrapper adds inside its own span, *outer_s* what
        it adds to its parent's interval (both from :func:`wrapper_cost`).
        """
        names = np.frombuffer(self.names, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int32).astype(np.intp)
        duration = (np.frombuffer(self.ends, dtype=np.float64)
                    - np.frombuffer(self.starts, dtype=np.float64))
        count = len(duration)
        wrapped = ~np.array(self.phase_list, dtype=bool)[names]
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=count
        )
        # only wrapped children cost their parent a wrapper's bookkeeping
        children = np.bincount(
            parents[has_parent & wrapped], minlength=count
        )
        self_time = duration - covered - children * outer_s
        self_time[wrapped] -= inner_s
        np.clip(self_time, 0.0, None, out=self_time)
        kinds = len(self.name_list)
        return SpanSummary(
            names=list(self.name_list),
            layers=list(self.layer_list),
            calls=np.bincount(names, minlength=kinds),
            total_s=np.bincount(names, weights=duration, minlength=kinds),
            self_s=np.bincount(names, weights=self_time, minlength=kinds),
        )

    # -- export --------------------------------------------------------------
    def write_chrome_trace(
        self, path: str, job_id: str, limit: int
    ) -> int:
        """Write the first *limit* spans as Chrome-trace JSON (open it at
        https://ui.perfetto.dev). Spans are indexed in call order, so a
        prefix is closed under the parent relation. Returns spans written."""
        count = min(len(self.starts), limit)
        origin = self.starts[0] if count else 0.0
        heads = [
            '{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":1,'
            % (json.dumps(name), json.dumps(layer))
            for name, layer in zip(self.name_list, self.layer_list)
        ]
        job = json.dumps(job_id)
        rows = [
            '%s"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"job":%s}}'
            % (
                heads[self.names[i]],
                (self.starts[i] - origin) * 1e6,
                (self.ends[i] - self.starts[i]) * 1e6,
                i, self.parents[i], job,
            )
            for i in range(count)
        ]
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit":"ms","otherData":{"job":%s,'
                      '"spans_recorded":%d,"spans_written":%d},'
                      '"traceEvents":[\n'
                      % (job, len(self.starts), count))
            out.write(",\n".join(rows))
            out.write("\n]}\n")
        return count


class SpanSummary:
    """Per-name call counts, inclusive seconds and self seconds."""

    def __init__(self, names, layers, calls, total_s, self_s) -> None:
        self.names = names
        self.layers = layers
        self._calls = dict(zip(names, (int(c) for c in calls)))
        self._total_s = dict(zip(names, (float(t) for t in total_s)))
        self._self_s = dict(zip(names, (float(t) for t in self_s)))

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def calls_matching(self, suffix: str) -> int:
        """Calls of every span named ``<SomeClass><suffix>`` — a method and
        its subclass overrides."""
        return sum(
            count for name, count in self._calls.items()
            if name.endswith(suffix)
        )

    def total_s(self, name: str) -> float:
        return self._total_s.get(name, 0.0)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, layer in zip(self.names, self.layers):
            out[layer] = out.get(layer, 0.0) + self._self_s[name]
        return out


def wrapper_cost(calls: int = 20000) -> tuple[float, float]:
    """Measure one wrapper's cost on a wrapped no-op: ``(inner, outer)``
    seconds — what lands inside the wrapped call's own span, and what lands
    in its parent's interval around it."""
    def noop() -> None:
        return None

    recorder = SpanRecorder()
    wrapped = recorder.wrap(noop, "noop", "harness")
    for _ in range(calls // 10):  # warm both loops
        noop()
        wrapped()
    recorder = SpanRecorder()
    wrapped = recorder.wrap(noop, "noop", "harness")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    spanned = perf_counter() - t0
    inside = sum(recorder.ends) - sum(recorder.starts)
    inner = max(inside - bare, 0.0) / calls
    outer = max(spanned - bare - inner * calls, 0.0) / calls
    return inner, outer
