"""One workload's child process: set up once, then repeat the job.

Run by :mod:`.cli` as ``python -m benchmarks.ledger.child``. It prints
``READY`` the moment set-up ends (the parent times process start → that
line as ``setup_s``) and a JSON document as its last line.

Modes:

* ``setup``   — set up, print ``READY``, exit;
* ``measure`` — one discarded warm-up repeat with an event-counting kernel
  observer attached, then untraced, unobserved timed repeats for
  ``--seconds`` (never fewer than ``--min-repeats``);
* ``traced``  — one untraced warm-up repeat, then one repeat with the span
  wrappers and the observer on; writes the Chrome-trace file.

After every repeat, outside the timed job, the child inspects what the job
left behind: the exact (simulated-clock and count) facts and the
correctness checks. The facts' digest must be the same for every repeat.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import sys
from contextlib import nullcontext
from time import perf_counter, process_time
from typing import Any, Callable

import numpy as np

from repro.fleet import FleetReport

from .workloads import IMPLS, World, WorkloadImpl

#: Callback-module prefixes the observer sorts executed events into.
EVENT_LAYERS = ("sim", "net", "runtime", "services")


class EventCounter:
    """Passive kernel observer (the public ``Kernel.add_observer`` hook)."""

    def __init__(self) -> None:
        self.kernel: Any = None
        self.executed = 0
        self.peak_pending = 0
        self.by_module: dict[str, int] = {}

    def attach(self, world: World) -> None:
        self.kernel = world.kernel
        world.kernel.add_observer(self)

    def on_schedule(self, now: float, event: Any) -> None:
        pending = self.kernel.pending_events
        if pending > self.peak_pending:
            self.peak_pending = pending

    def on_execute(self, now: float, event: Any) -> None:
        self.executed += 1
        module = getattr(event.callback, "__module__", None) or "?"
        self.by_module[module] = self.by_module.get(module, 0) + 1

    def summary(self) -> dict:
        by_layer = dict.fromkeys(EVENT_LAYERS, 0)
        for module, count in self.by_module.items():
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in by_layer:
                by_layer[parts[1]] += count
        return {
            "executed": self.executed,
            "peak_pending": self.peak_pending,
            "by_layer": by_layer,
        }


#: The calibration rate that defines one *calibrated* host second: about what
#: :func:`calibration_ops_per_s` reads on the 2-core box this was built on
#: when nothing else has the machine.
CALIBRATION_REF_OPS_PER_S = 2.6e6


def calibration_ops_per_s(rounds: int = 100_000) -> float:
    """A fixed pure-Python heap/call loop (~0.14 s), timed before and after
    every repeat. It belongs to the ledger, so no change to the program
    moves it: when it slows, the machine slowed. Host times are scaled by
    it (see :func:`calibrate`), because identical jobs on this shared box
    take 1.9-4.9 s depending on what the neighbours do."""
    def bump(x: int) -> int:
        return x + 1

    heap: list[tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    start = perf_counter()
    for i in range(rounds):
        push(heap, ((i * 7919) % 1013, i))
        if i & 1:
            pop(heap)
        bump(i)
    while heap:
        pop(heap)
    return 3 * rounds / (perf_counter() - start)


def calibrate(timings: list[dict]) -> None:
    """Give every repeat its ``scale``: the mean of the calibration rates
    read just before and just after it, over the reference rate. Seconds
    times ``scale`` are calibrated seconds — what the repeat would have
    taken on a machine that runs the calibration loop at the reference
    rate."""
    rates = [t["calibration_before"] for t in timings]
    rates.append(calibration_ops_per_s())
    for timing, before, after in zip(timings, rates, rates[1:]):
        timing["calibration_ops_per_s"] = (before + after) / 2
        timing["scale"] = (before + after) / 2 / CALIBRATION_REF_OPS_PER_S


# -- the timed job -------------------------------------------------------------
def run_job(
    impl: WorkloadImpl,
    inputs: Any,
    phase: Callable[[str], Any] = nullcontext,
    after_build: Callable[[World], None] | None = None,
) -> tuple[World, Any, dict]:
    """Build + run to the horizon and drain + report, in fresh state.

    *phase* wraps the job and each of its phases (the traced repeat passes
    the span recorder's); *after_build* attaches the kernel observer."""
    gc.collect()
    gc.freeze()
    calibration = calibration_ops_per_s()
    cpu0 = process_time()
    t0 = perf_counter()
    with phase("job"):
        with phase("build"):
            world = impl.build(inputs)
        if after_build is not None:
            after_build(world)
        t1 = perf_counter()
        with phase("run"):
            impl.run(world)
        t2 = perf_counter()
        with phase("report"):
            report = impl.report(world)
    t3 = perf_counter()
    timing = {
        "job_s": t3 - t0,
        "cpu_s": process_time() - cpu0,
        "build_s": t1 - t0,
        "run_s": t2 - t1,
        "report_s": t3 - t2,
        "calibration_before": calibration,
    }
    return world, report, timing


# -- inspection (untimed) --------------------------------------------------------
def inspect(world: World, report: Any) -> tuple[dict, list[str]]:
    """The exact facts of one finished job, and every failed check."""
    problems: list[str] = []
    captured = completed = dropped = in_flight = 0
    latencies: list[float] = []
    for pipeline in world.pipelines:
        source = pipeline.module_instance(
            pipeline.config.source_module).source
        metrics = pipeline.metrics
        seen = source.captured_count
        done = metrics.counter("frames_completed")
        lost = metrics.counter("frames_dropped")
        # in flight at the horizon: admitted and unsettled, or still
        # buffered at the source waiting for a credit
        flying = metrics.frames_in_flight + (
            seen - source.emitted_count - source.dropped_count
        )
        if seen != done + lost + flying:
            problems.append(
                f"frame conservation: {pipeline.name} captured {seen} !="
                f" completed {done} + dropped {lost} + in flight {flying}"
            )
        captured += seen
        completed += done
        dropped += lost
        in_flight += flying
        latencies.extend(metrics.total_latencies)
    live = sum(
        device.frame_store.live_count
        for home in world.homes for device in home.devices.values()
    )
    if live:
        problems.append(f"frames.live_at_end: {live} frames still referenced")
    if isinstance(report, FleetReport):
        for result in report.results:
            ids = result.sink_frame_ids
            if any(b <= a for a, b in zip(ids, ids[1:])):
                problems.append(f"sink order: {result.name} ids not increasing")
    violations = len(report["violations"]) if world.audited else 0
    if violations:
        problems.append(f"audit: {violations} invariant violations")
    if not completed:
        problems.append("no frame completed")
        p50 = p99 = 0.0
    else:
        p50, p99 = (float(v) for v in np.percentile(latencies, [50, 99]))
    facts = {
        "captured": captured,
        "completed": completed,
        "dropped": dropped,
        "in_flight": in_flight,
        "latency_samples": len(latencies),
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "latency_sum_ms": float(np.sum(latencies)) * 1e3,
        "sim_fps": completed / world.capture_s,
        "sim_end_s": float(world.kernel.now),
        "live_at_end": live,
        "violations": violations,
        # a failed check fails every frame of its repeat
        "failed": captured if problems else 0,
    }
    return facts, problems


def digest(facts: dict, events: dict | None = None) -> str:
    """A hash over every exact number, floats by their bits."""
    def bits(value: Any) -> Any:
        return value.hex() if isinstance(value, float) else value

    doc = {key: bits(value) for key, value in facts.items()}
    if events is not None:
        doc["events"] = events
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def layer_counts(world: World, report: Any) -> dict:
    """Counts the layers keep themselves, read through public attributes."""
    counters: dict[str, int] = {}
    for pipeline in world.pipelines:
        for key, value in pipeline.metrics.counters().items():
            counters[key] = counters.get(key, 0) + value
    dedup_hits = dedup_misses = cache_hits = cache_misses = 0
    sends_failed = trace_spans = 0
    for home in world.homes:
        perf = home.perf_stats()
        dedup_hits += perf["dedup"]["hits"]
        dedup_misses += perf["dedup"]["misses"]
        cache_hits += perf["cache"]["hits"]
        cache_misses += perf["cache"]["misses"]
        if home.transport is not None:
            sends_failed += home.transport.failed_count
        if home.tracer is not None:
            trace_spans += home.tracer.span_count
    return {
        "homes": len(world.homes),
        "dedup_hit_ratio": dedup_hits / max(dedup_hits + dedup_misses, 1),
        "cache_hit_ratio": cache_hits / max(cache_hits + cache_misses, 1),
        "sends_failed": sends_failed,
        "trace_spans": trace_spans,
        "dead_letters": counters.get("dead_letters", 0),
        "rejections": counters.get("service_rejections", 0),
        "plans_fell_back": getattr(report, "plans_fell_back", 0),
    }


# -- modes ---------------------------------------------------------------------
def observed_job(impl: WorkloadImpl, inputs: Any, **kwargs: Any):
    """One job with the event-counting observer on its kernel."""
    counter = EventCounter()
    world, report, timing = run_job(
        impl, inputs, after_build=counter.attach, **kwargs
    )
    return world, report, timing, counter.summary()


def measure(impl: WorkloadImpl, inputs: Any, seconds: float,
            min_repeats: int) -> dict:
    world, report, warmup, events = observed_job(impl, inputs)
    facts, problems = inspect(world, report)
    reference = digest(facts)
    attempted, failed = facts["captured"], facts["failed"]
    del world, report
    repeats: list[dict] = []
    started = perf_counter()
    while len(repeats) < min_repeats or perf_counter() - started < seconds:
        world, report, timing = run_job(impl, inputs)
        again, more = inspect(world, report)
        problems.extend(more)
        if digest(again) != reference:
            problems.append(
                f"repeat {len(repeats) + 1}: exact metrics differ from the"
                " warm-up repeat's"
            )
            again["failed"] = again["captured"]
        attempted += again["captured"]
        failed += again["failed"]
        repeats.append(timing)
        del world, report
    calibrate([warmup, *repeats])
    return {
        "facts": facts,
        "digest": digest(facts, events),
        "events": events,
        "warmup": warmup,
        "repeats": repeats,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(impl: WorkloadImpl, inputs: Any, span_path: str, job_id: str,
           span_limit: int) -> dict:
    from .spans import SpanRecorder, wrapper_cost

    run_job(impl, inputs)  # warm-up, so the traced repeat is a steady one
    inner_s, outer_s = wrapper_cost()
    recorder = SpanRecorder()
    recorder.install()
    try:
        world, report, timing, events = observed_job(
            impl, inputs, phase=recorder.phase
        )
    finally:
        recorder.uninstall()
    calibrate([timing])
    facts, problems = inspect(world, report)
    counts = layer_counts(world, report)
    summary = recorder.analyse(inner_s, outer_s)
    counts.update({
        "link_bytes": recorder.link_bytes[0],
        "schedules": summary.calls("Kernel.schedule"),
        "timeouts": summary.calls("Kernel.timeout"),
        "sends": summary.calls_matching("Transport.send"),
        "rpc_calls": summary.calls("RpcClient.call"),
        "payload_size_calls": summary.calls("payload_size"),
        "captures": summary.calls("SyntheticCamera.capture"),
        "store_puts": summary.calls("FrameStore.put"),
        "store_releases": summary.calls("FrameStore.release"),
        "digest_calls": summary.calls("content_digest"),
        "codec_encodes": summary.calls("encode_frame"),
        "module_sends": summary.calls("ModuleRuntime.send_to_module"),
        "service_calls": summary.calls("ModuleContext.call_service"),
        "stub_calls": summary.calls_matching("ServiceStub.call"),
        "local_stub_calls": summary.calls("LocalServiceStub.call"),
        "estimate_calls": summary.calls("PoseEstimator.estimate"),
        "plan_s": summary.total_s("plan_optimized"),
        "deploy_s": summary.total_s("VideoPipe.deploy_pipeline"),
    })
    written = recorder.write_chrome_trace(span_path, job_id, span_limit)
    return {
        "facts": facts,
        "digest": digest(facts, events),
        "events": events,
        "timing": timing,
        "layer_self_s": summary.layer_self_s(),
        "counts": counts,
        "spans": len(recorder.starts),
        "spans_written": written,
        "span_file": span_path,
        "span_overhead_us": (inner_s + outer_s) * 1e6,
        "attempted": facts["captured"],
        "failed": facts["failed"],
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(IMPLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-repeats", type=int, default=1)
    parser.add_argument("--span-file", default="")
    parser.add_argument("--span-limit", type=int, default=0)
    args = parser.parse_args(argv)

    impl = IMPLS[args.workload]
    inputs = impl.prepare(args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(impl, inputs, args.seconds, args.min_repeats)
    else:
        result = traced(
            impl, inputs, args.span_file,
            f"{args.workload}/seed{args.seed}", args.span_limit,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
