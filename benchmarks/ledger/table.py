"""The ledger's single source of names: workloads, metrics, units, bounds.

``BENCHMARK.json`` is generated from this table (``--write-manifest``) and
checked against it (``--check-manifest``); ``--list`` prints it; the runner
and the README take every name from here. Nothing in this module imports
``repro`` — the parent process of a ledger run never pays the import it is
measuring.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one run's timed repeats last (``run_seconds`` in the manifest).
RUN_SECONDS = 12
#: The directory that holds the benchmark and nothing else.
PATHS = ["benchmarks/ledger"]
COMMAND = ["python3", "benchmarks/ledger/run.py"]
#: Timed repeats per run never drop below this, however slow the machine.
MIN_REPEATS = 7


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True, slots=True)
class Metric:
    """One named number.

    ``bound`` is the share of the parent's median by which an end-to-end
    metric may worsen before a later PR is refused (``None`` for per-layer
    metrics, which carry no bound). ``exact`` marks numbers that come from
    the simulated clock or from counts: at one seed they must repeat bit for
    bit between repeats, between the traced and untraced runs and between
    two sets of runs; their ``bound`` only has to cover seed-to-seed
    variation, because the driver varies the seed between runs.
    ``in_manifest`` is False for the two end-to-end ratios that are
    legitimately 0 (the manifest contract forbids a metric that can be 0):
    they are printed with the others, and ``failed_share`` reaches the driver
    as the ``failed``/``attempted`` keys of the result line.
    """

    name: str
    unit: str
    better: str
    what: str
    bound: float | None = None
    exact: bool = False
    in_manifest: bool = True


WORKLOADS = [
    Workload(
        "fleet-stage-90",
        "90 colocated 5-stage homes on one kernel, tiny payloads, no vision:"
        " sim (heap, Signal/Process/Resource) and runtime dispatch do nearly"
        " all the work",
    ),
    Workload(
        "fleet-plan-cloud-16",
        "16 homes (4 of each size) placed by plan_optimized, cloud tier over"
        " a metered lossy WAN: the build (planner, topology, networkx)"
        " outweighs the run, so a kernel speed-up should barely move it",
    ),
    Workload(
        "home-fitness-shared",
        "the paper's Table 2 shared-pose home, moving scene, every optional"
        " feature off: the default quickstart path, where motion, vision and"
        " frames take their largest share",
    ),
    Workload(
        "home-static-features-on",
        "the same home on a static scene with fast path, data plane, tracing"
        " and audit all on: the dedup/cache hit path with observers at every"
        " hook site",
    ),
]

END_TO_END = [
    Metric("setup_s", "s", "lower",
           "child-process start to first build call: interpreter, imports,"
           " classifier training, input generation; median of 5 set-ups",
           bound=0.25),
    Metric("frames_per_host_s", "frames/host_s", "higher",
           "completed frames / median calibrated job seconds (job = build +"
           " run to the horizon and drain + report; calibrated = scaled by"
           " the calibration loop timed around each repeat)",
           bound=0.25),
    Metric("events_per_frame", "count", "lower",
           "kernel events executed / completed frames",
           bound=0.05, exact=True),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the child process that ran the untraced repeats",
           bound=0.10),
    Metric("sim_latency_p50_ms", "sim_ms", "lower",
           "capture-to-completion latency, pooled over pipelines and homes",
           bound=0.10, exact=True),
    Metric("sim_latency_p99_ms", "sim_ms", "lower",
           "same, 99th percentile",
           bound=0.25, exact=True),
    Metric("sim_fps", "frames/sim_s", "higher",
           "completed frames / capture seconds, summed over pipelines",
           bound=0.10, exact=True),
    Metric("sim_delivered_share", "ratio", "higher",
           "completed frames / captured frames (1 - sim_drop_share once the"
           " drain leaves nothing in flight); the never-zero form of the"
           " drop share",
           bound=0.10, exact=True),
    Metric("sim_drop_share", "ratio", "lower",
           "frames dropped at the source / frames captured: the design's"
           " flow control, not a failure; 0 on both fleet workloads",
           exact=True, in_manifest=False),
    Metric("failed_share", "ratio", "lower",
           "failed operations / frames captured; an operation is one"
           " captured frame, failed if after the drain it is neither"
           " completed, dropped nor in flight, or if its repeat failed a"
           " correctness check; must be 0",
           exact=True, in_manifest=False),
]


def _layer(prefix: str, rows: list[tuple[str, str, str, str]]) -> list[Metric]:
    return [
        Metric(f"{prefix}.{name}", unit, better, what)
        for name, unit, better, what in rows
    ]


_SELF = ("self_share", "ratio", "lower")

PER_LAYER = [
    *_layer("sim", [
        ("events_executed", "count", "lower", "events the kernel executed"),
        ("events_scheduled", "count", "lower", "Kernel.schedule calls"),
        ("events_per_host_s", "1/host_s", "higher",
         "events executed / median calibrated untraced run-phase seconds"),
        ("peak_pending_events", "count", "lower",
         "largest event-queue length seen at a schedule"),
        ("timeouts_per_frame", "count", "lower",
         "Kernel.timeout calls / completed frames"),
        ("own_events_per_frame", "count", "lower",
         "events whose callback lives under repro.sim / completed frames"),
        (*_SELF, "Kernel/Signal/Resource spans' self time, including the"
                 " queue/Process/Signal glue Kernel.step hands to no child"),
    ]),
    *_layer("net", [
        ("events_per_frame", "count", "lower",
         "events whose callback lives under repro.net / completed frames"),
        ("sends", "count", "lower", "Transport.send calls"),
        ("bytes_sent", "B", "lower", "bytes handed to Link.transfer"),
        ("rpc_calls", "count", "lower", "RpcClient.call calls"),
        ("sends_failed", "count", "lower", "Transport.failed_count, summed"),
        ("payload_size_calls", "count", "lower", "wire.payload_size calls"),
        (*_SELF, "Transport/Link/RpcClient/wire spans' self time"),
    ]),
    *_layer("frames", [
        ("captures", "count", "lower", "SyntheticCamera.capture calls"),
        ("store_puts", "count", "lower", "FrameStore.put calls"),
        ("store_releases", "count", "lower", "FrameStore.release calls"),
        ("live_at_end", "count", "lower",
         "frames still referenced after the drain; must be 0"),
        ("source_drop_share", "ratio", "lower",
         "frames dropped at the source / frames captured"),
        ("dedup_hit_ratio", "ratio", "higher",
         "FrameStore dedup hits / (hits + misses)"),
        ("digest_calls", "count", "lower", "content_digest calls"),
        ("codec_encodes", "count", "lower", "encode_frame calls"),
        (*_SELF, "FrameStore/codec/digest/camera spans' self time"),
    ]),
    *_layer("runtime", [
        ("events_per_frame", "count", "lower",
         "events whose callback lives under repro.runtime / completed"
         " frames"),
        ("module_sends", "count", "lower",
         "ModuleRuntime.send_to_module calls"),
        ("dead_letters", "count", "lower", "dead_letters counters, summed"),
        (*_SELF, "ModuleRuntime/ModuleContext spans' self time"),
    ]),
    *_layer("services", [
        ("events_per_frame", "count", "lower",
         "events whose callback lives under repro.services / completed"
         " frames"),
        ("calls", "count", "lower", "ModuleContext.call_service calls"),
        ("local_share", "ratio", "higher",
         "LocalServiceStub.call calls / all stub calls"),
        ("cache_hit_ratio", "ratio", "higher",
         "result-cache hits / lookups over every host"),
        ("rejections", "count", "lower",
         "service_rejections counters, summed"),
        (*_SELF, "ServiceHost/ServiceStub/Service.handle spans' self time"),
    ]),
    *_layer("pipeline", [
        ("plan_ms_per_home", "host_ms", "lower",
         "plan_optimized span time / homes, traced repeat, calibrated"),
        ("deploy_ms_per_home", "host_ms", "lower",
         "VideoPipe.deploy_pipeline span time / homes, traced repeat,"
         " calibrated"),
        ("plans_fell_back", "count", "lower",
         "optimized plans that fell back to the co-located heuristic"),
        (*_SELF, "plan_optimized and deploy_pipeline spans' self time"),
    ]),
    *_layer("fleet", [
        ("build_ms_per_home", "host_ms", "lower",
         "build phase / homes, median untraced repeat, calibrated"),
        ("build_share", "ratio", "lower", "build phase / job"),
        ("run_share", "ratio", "lower", "run phase / job"),
        ("report_share", "ratio", "lower", "report phase / job"),
        ("report_ms", "host_ms", "lower", "report phase, calibrated"),
    ]),
    *_layer("core", [
        (*_SELF, "the job's phase spans and VideoPipe.add_device/"
                 "deploy_service spans' self time (Fleet and facade glue)"),
    ]),
    *_layer("devices", [
        (*_SELF, "device-model processes (the CPU scheduler's jobs)"),
    ]),
    *_layer("apps", [
        (*_SELF, "application module processes (repro.apps and the fleet's"
                 " stage modules)"),
    ]),
    *_layer("vision", [
        ("estimate_calls", "count", "lower", "PoseEstimator.estimate calls"),
        (*_SELF, "pose estimator, kNN and rep counter spans' self time"),
    ]),
    *_layer("motion", [
        (*_SELF, "subject_pose spans' self time"),
    ]),
    *_layer("trace", [
        ("spans_recorded", "count", "lower", "TraceRecorder.span_count"),
        (*_SELF, "TraceRecorder public methods' self time"),
    ]),
    *_layer("audit", [
        ("violations", "count", "lower", "auditor violations; must be 0"),
        (*_SELF, "InvariantAuditor public methods' self time"),
    ]),
    *_layer("metrics", [
        (*_SELF, "MetricsCollector frame_entered/completed/dropped self"
                 " time"),
    ]),
    *_layer("harness", [
        ("trace_overhead_share", "ratio", "lower",
         "(traced job - untraced median job) / untraced median job,"
         " calibrated seconds"),
        ("calibration_ops_per_s", "1/host_s", "higher",
         "a fixed pure-Python heap/call loop timed before and after every"
         " repeat; the median over repeats"),
        ("repeat_iqr_share", "ratio", "lower",
         "(q3 - q1) / median of the untraced repeats' calibrated job"
         " seconds"),
        ("warmup_repeat_s", "host_s", "lower",
         "the discarded first repeat's calibrated job seconds"),
        ("spans", "count", "lower", "spans the ledger recorded"),
        ("span_overhead_us", "host_us", "lower",
         "measured cost of one wrapper, subtracted per child span"),
    ]),
]

#: Layers whose ``self_share`` metrics partition the traced job.
SHARE_LAYERS = [
    "sim", "net", "frames", "runtime", "services", "pipeline", "core",
    "devices", "apps", "vision", "motion", "trace", "audit", "metrics",
]


def manifest() -> dict:
    """``BENCHMARK.json`` as this table defines it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.in_manifest
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def describe() -> str:
    """The table as ``--list`` prints it."""
    lines = ["workloads:"]
    for w in WORKLOADS:
        lines.append(f"  {w.name:<26} {w.why}")
    lines.append("end-to-end metrics:")
    for m in END_TO_END:
        bound = f"{m.bound:.0%}" if m.bound is not None else "-"
        notes = ("exact " if m.exact else "") + (
            "" if m.in_manifest else "not-in-manifest ")
        lines.append(
            f"  {m.name:<26} {m.unit:<14} {m.better:<7} bound {bound:<5}"
            f" {notes}{m.what}"
        )
    lines.append("per-layer metrics:")
    for m in PER_LAYER:
        lines.append(f"  {m.name:<32} {m.unit:<10} {m.better:<7} {m.what}")
    return "\n".join(lines)
