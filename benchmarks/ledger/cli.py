"""The ledger's command line: orchestrate child processes, print metrics.

The parent never imports ``repro``. Per workload it starts, one after the
other (the box has two shared cores; nothing runs beside a measurement):

1. five ``setup`` children — the first warms ``.pyc`` files and the page
   cache and is discarded, the other four are ``setup_s`` samples;
2. one ``measure`` child — a fifth ``setup_s`` sample, the warm-up repeat
   and the timed repeats every end-to-end number comes from;
3. one ``traced`` child — the per-layer numbers.

The driver's contract (``--workload W --seed N --seconds S --trace 0|1``)
runs one workload and prints one JSON result line last: steps 1–2 for
``--trace 0``, steps 2–3 for ``--trace 1``. Without ``--trace`` the command
runs every step for every workload and prints everything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import table

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "bench-artifacts" / "ledger"
#: A child that has not finished by then is killed; the driver allows a run
#: 180 s in all.
CHILD_TIMEOUT_S = 150
#: Set-up-only children per run; the first is a discarded warm-up.
SETUP_CHILDREN = 5
#: Spans written to the Chrome-trace file (all of them are analysed).
SPAN_FILE_LIMIT = 100_000


class LedgerError(RuntimeError):
    """A child process died or printed no result."""


# -- child processes -------------------------------------------------------------
def spawn(mode: str, workload: str, seed: int, *extra: str) -> tuple[float, dict]:
    """Run one child to completion. Returns ``(setup_s, result)`` —
    ``setup_s`` is process start to the child's ``READY`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    # string hashing must not reorder anything between two sets of runs
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, "-m", "benchmarks.ledger.child",
        "--mode", mode, "--workload", workload, "--seed", str(seed), *extra,
    ]
    started = perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or ready.strip() != "READY":
        raise LedgerError(
            f"{mode} child for {workload} exited {proc.returncode}"
        )
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def run_workload(
    name: str, seed: int, seconds: float, setups: bool, trace: bool,
    out_dir: Path,
) -> dict:
    """Every child the requested numbers need, in order."""
    setup_samples: list[float] = []
    if setups:
        setup_samples = [
            spawn("setup", name, seed)[0] for _ in range(SETUP_CHILDREN)
        ][1:]
    setup_s, measured = spawn(
        "measure", name, seed,
        "--seconds", str(seconds), "--min-repeats", str(table.MIN_REPEATS),
    )
    setup_samples.append(setup_s)
    traced = None
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        _, traced = spawn(
            "traced", name, seed,
            "--span-file", str(out_dir / f"{name}-seed{seed}.spans.json"),
            "--span-limit", str(SPAN_FILE_LIMIT),
        )
    return summarize(name, seed, setup_samples, measured, traced)


# -- metrics ---------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(
    name: str, seed: int, setup_samples: list[float], measured: dict,
    traced: dict | None,
) -> dict:
    """Turn the children's raw output into the named metrics."""
    facts, events = measured["facts"], measured["events"]
    repeats = measured["repeats"]
    jobs = [r["job_s"] * r["scale"] for r in repeats]
    job_q1, job_med, job_q3 = quartiles(jobs)
    completed, captured = facts["completed"], facts["captured"]
    problems = list(measured["problems"])
    attempted, failed = measured["attempted"], measured["failed"]
    if traced is not None:
        problems += traced["problems"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["digest"] != measured["digest"]:
            problems.append(
                "the traced repeat's exact metrics differ from the untraced"
                " repeats'"
            )
            failed += traced["attempted"] - traced["failed"]

    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "frames_per_host_s": completed / job_med,
        "events_per_frame": events["executed"] / completed,
        "peak_rss_mb": measured["peak_rss_mb"],
        "sim_latency_p50_ms": facts["latency_p50_ms"],
        "sim_latency_p99_ms": facts["latency_p99_ms"],
        "sim_fps": facts["sim_fps"],
        "sim_delivered_share": completed / captured,
        "sim_drop_share": facts["dropped"] / captured,
        "failed_share": failed / attempted,
    }
    detail = {
        "setup_s": f"median of {len(setup_samples)} set-ups,"
                   f" {min(setup_samples):.3f}..{max(setup_samples):.3f}",
        "frames_per_host_s":
            f"{completed} frames / median job {job_med:.3f} calibrated s"
            f" (q1 {job_q1:.3f}, q3 {job_q3:.3f}, {len(jobs)} repeats;"
            f" raw {statistics.median(r['job_s'] for r in repeats):.3f} s,"
            f" cpu {statistics.median(r['cpu_s'] for r in repeats):.3f} s)",
        "events_per_frame": f"{events['executed']} events",
        "sim_latency_p50_ms": f"{facts['latency_samples']} samples",
        "sim_latency_p99_ms": f"{facts['latency_samples']} samples",
        "failed_share": f"{failed} of {attempted} captured frames",
    }
    result = {
        "workload": name,
        "seed": seed,
        "repeats": len(jobs),
        "end_to_end": end_to_end,
        "detail": detail,
        "exact_digest": measured["digest"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "raw": {"setup_samples": setup_samples, "measured": measured,
                "traced": traced},
    }
    if traced is not None:
        result["per_layer"] = per_layer(measured, traced, jobs)
        result["span_file"] = traced["span_file"]
    return result


def per_layer(measured: dict, traced: dict, jobs: list[float]) -> dict:
    facts, events = measured["facts"], measured["events"]
    repeats = measured["repeats"]
    completed, captured = facts["completed"], facts["captured"]
    counts = traced["counts"]
    homes = counts["homes"]
    job_q1, job_med, job_q3 = quartiles(jobs)
    # phases of the repeat whose job time is the median, so they sum to it
    middle = sorted(
        repeats, key=lambda r: r["job_s"] * r["scale"])[len(repeats) // 2]
    run_med = statistics.median(r["run_s"] * r["scale"] for r in repeats)
    traced_scale = traced["timing"]["scale"]
    self_s = traced["layer_self_s"]
    total_self = sum(self_s.values())
    out = {
        f"{layer}.self_share": self_s.get(layer, 0.0) / total_self
        for layer in table.SHARE_LAYERS
    }
    by_layer = events["by_layer"]
    out.update({
        "sim.events_executed": events["executed"],
        "sim.events_scheduled": counts["schedules"],
        "sim.events_per_host_s": events["executed"] / run_med,
        "sim.peak_pending_events": events["peak_pending"],
        "sim.timeouts_per_frame": counts["timeouts"] / completed,
        "sim.own_events_per_frame": by_layer["sim"] / completed,
        "net.events_per_frame": by_layer["net"] / completed,
        "net.sends": counts["sends"],
        "net.bytes_sent": counts["link_bytes"],
        "net.rpc_calls": counts["rpc_calls"],
        "net.sends_failed": counts["sends_failed"],
        "net.payload_size_calls": counts["payload_size_calls"],
        "frames.captures": counts["captures"],
        "frames.store_puts": counts["store_puts"],
        "frames.store_releases": counts["store_releases"],
        "frames.live_at_end": facts["live_at_end"],
        "frames.source_drop_share": facts["dropped"] / captured,
        "frames.dedup_hit_ratio": counts["dedup_hit_ratio"],
        "frames.digest_calls": counts["digest_calls"],
        "frames.codec_encodes": counts["codec_encodes"],
        "runtime.events_per_frame": by_layer["runtime"] / completed,
        "runtime.module_sends": counts["module_sends"],
        "runtime.dead_letters": counts["dead_letters"],
        "services.events_per_frame": by_layer["services"] / completed,
        "services.calls": counts["service_calls"],
        "services.local_share":
            counts["local_stub_calls"] / max(counts["stub_calls"], 1),
        "services.cache_hit_ratio": counts["cache_hit_ratio"],
        "services.rejections": counts["rejections"],
        "pipeline.plan_ms_per_home":
            counts["plan_s"] * traced_scale * 1e3 / homes,
        "pipeline.deploy_ms_per_home":
            counts["deploy_s"] * traced_scale * 1e3 / homes,
        "pipeline.plans_fell_back": counts["plans_fell_back"],
        "fleet.build_ms_per_home":
            middle["build_s"] * middle["scale"] * 1e3 / homes,
        "fleet.build_share": middle["build_s"] / middle["job_s"],
        "fleet.run_share": middle["run_s"] / middle["job_s"],
        "fleet.report_share": middle["report_s"] / middle["job_s"],
        "fleet.report_ms": middle["report_s"] * middle["scale"] * 1e3,
        "vision.estimate_calls": counts["estimate_calls"],
        "trace.spans_recorded": counts["trace_spans"],
        "audit.violations": facts["violations"],
        "harness.trace_overhead_share":
            (traced["timing"]["job_s"] * traced_scale - job_med) / job_med,
        "harness.calibration_ops_per_s": statistics.median(
            r["calibration_ops_per_s"] for r in repeats),
        "harness.repeat_iqr_share": (job_q3 - job_q1) / job_med,
        "harness.warmup_repeat_s":
            measured["warmup"]["job_s"] * measured["warmup"]["scale"],
        "harness.spans": traced["spans"],
        "harness.span_overhead_us": traced["span_overhead_us"],
    })
    return out


# -- output ----------------------------------------------------------------------
def print_report(result: dict) -> None:
    print(f"\n== {result['workload']}  seed {result['seed']},"
          f" {result['repeats']} timed repeats")
    print("  end to end (untraced repeats)")
    for metric in table.END_TO_END:
        value = result["end_to_end"][metric.name]
        bound = ("exact" if metric.exact else "") + (
            f" {metric.bound:.0%}" if metric.bound is not None else "")
        print(f"    {metric.name:<22} {value:>14.6g} {metric.unit:<14}"
              f" {metric.better:<7} bound {bound.strip():<10}"
              f" {result['detail'].get(metric.name, '')}")
    if "per_layer" in result:
        print("  per layer (one traced repeat; counts exact, times host)")
        for metric in table.PER_LAYER:
            value = result["per_layer"][metric.name]
            print(f"    {metric.name:<32} {value:>14.6g} {metric.unit:<10}"
                  f" {metric.better}")
        shares = sum(result["per_layer"][f"{layer}.self_share"]
                     for layer in table.SHARE_LAYERS)
        print(f"    layer self shares sum to {shares:.4f};"
              f" spans in {result['span_file']}")
    if result["problems"]:
        print("  FAILED CHECKS")
        for problem in result["problems"]:
            print(f"    {problem}")
    else:
        print("  checks: frame conservation, live_at_end == 0, sink order,"
              " invariants, exact-metric digest — all passed")


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result line: exactly these four keys."""
    if trace:
        rows = [(m, result["per_layer"][m.name]) for m in table.PER_LAYER]
    else:
        rows = [(m, result["end_to_end"][m.name])
                for m in table.END_TO_END if m.in_manifest]
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": value, "unit": m.unit} for m, value in rows
        },
    })


def save(result: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{result['seed']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


# -- modes -----------------------------------------------------------------------
def check_manifest() -> int:
    expected = table.manifest()
    try:
        actual = json.loads(MANIFEST.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read {MANIFEST}: {exc}")
        return 1
    if actual != expected:
        for key in sorted(set(expected) | set(actual)):
            if actual.get(key) != expected.get(key):
                print(f"BENCHMARK.json disagrees with the table at {key!r}")
        return 1
    print("BENCHMARK.json matches benchmarks/ledger/table.py")
    return 0


def run_aa(names: list[str], seed: int, seconds: float, out_dir: Path) -> int:
    """Two sets of untraced runs of the same code; every end-to-end metric
    must agree within its bound, every exact one bit for bit."""
    sets = [
        {name: run_workload(name, seed, seconds, setups=True, trace=False,
                            out_dir=out_dir)
         for name in names}
        for _ in range(2)
    ]
    status = 0
    for name in names:
        first, second = sets[0][name], sets[1][name]
        print(f"\n== A/A {name}  seed {seed}")
        for run in (first, second):
            if run["problems"]:
                status = 1
                print(f"    FAILED CHECKS: {run['problems']}")
        for metric in table.END_TO_END:
            a = first["end_to_end"][metric.name]
            b = second["end_to_end"][metric.name]
            diff = abs(b - a) / abs(a) if a else abs(b)
            ok = a == b if metric.exact else diff <= metric.bound
            limit = "exact" if metric.exact else f"{metric.bound:.1%}"
            status |= 0 if ok else 1
            print(f"    {metric.name:<22} {a:>14.6g} {b:>14.6g}"
                  f"  diff {diff:>7.2%}  bound {limit:<6}"
                  f" {'ok' if ok else 'EXCEEDED'}")
        if first["exact_digest"] != second["exact_digest"]:
            status = 1
            print("    exact-metric digests differ between the two sets")
    print("\nA/A", "passed" if status == 0 else "FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    names = [w.name for w in table.WORKLOADS]
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger",
        description="Two-clock performance ledger: host cost and simulated"
                    " results, end to end and layer by layer.",
    )
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=table.RUN_SECONDS,
                        help="how long the timed repeats of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: print one JSON result line"
                             " with the end-to-end (0) or per-layer (1)"
                             " metrics of the one --workload")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where results and span files go")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare")
    parser.add_argument("--list", action="store_true",
                        help="print the metric and workload table")
    parser.add_argument("--check-manifest", action="store_true",
                        help="fail if BENCHMARK.json disagrees with the table")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the table")
    args = parser.parse_args(argv)

    if args.list:
        print(table.describe())
        return 0
    if args.write_manifest:
        MANIFEST.write_text(
            json.dumps(table.manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.check_manifest:
        return check_manifest()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    selected = args.workload or names
    if args.aa:
        return run_aa(selected, args.seed, args.seconds, args.out)
    if args.trace is not None and len(selected) != 1:
        parser.error("--trace needs exactly one --workload")
    status = 0
    for name in selected:
        # the contract's --trace 0 skips the traced child, --trace 1 the
        # set-up probes; without --trace a workload gets both
        result = run_workload(
            name, args.seed, args.seconds,
            setups=args.trace != 1, trace=args.trace != 0, out_dir=args.out,
        )
        print_report(result)
        save(result, args.out)
        status |= 1 if result["problems"] else 0
    if args.trace is not None:
        print(contract_line(result, bool(args.trace)))
    return status
