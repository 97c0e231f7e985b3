#!/usr/bin/env python3
"""Executed kernel events (or Python calls) per completed frame.

The profile a perf PR that moves the event count has to show: which
callbacks the events of one frame belong to. A passive observer on the
public ``Kernel.add_observer`` hook counts every executed event under its
callback's qualified name; ``Process._resume`` — the callback of every
process start and of every wake-up from a pending signal that is neither a
timer nor a process's end (those two wake their waiters inside their own
event) — is split into ``start`` / ``wake`` and by the generator the
process runs. Nothing is patched, so the counted run is the run
(docs/PERF.md "What is an event" holds this tool's output for
``--fleet-stage 90``).

With ``--calls`` it counts Python calls instead: every call (and generator
resume) the run makes, through ``sys.setprofile``, split by the ``repro``
package of the called code (``other`` is the standard library, numpy's
Python half and generated code such as dataclass ``__init__``s). C calls
are not counted. The count is exact: it does not move with the box or the
hash seed, so it compares across commits where the wall clock cannot
(docs/PERF.md "A span is a row" holds it for the four ledger workloads).
Module-level caches warm up on the first run, so count in a fresh process.

Usage:
    python tools/event_histogram.py quickstart            # a determinism scenario
    python tools/event_histogram.py --fleet-stage 90      # the ledger's fleet shape
    python tools/event_histogram.py --fleet-stage 5 --top 12 --json out.json
    python tools/event_histogram.py home-static-features-on --calls  # a ledger workload
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.fleet import Fleet, FleetConfig  # noqa: E402
from scenarios import EXAMPLE_SCENARIOS  # noqa: E402


class CallbackHistogram:
    """Passive kernel observer: executed events by callback label."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def on_schedule(self, now: float, event) -> None:
        pass

    def on_execute(self, now: float, event) -> None:
        self.counts[label(event)] += 1


def label(event) -> str:
    """``Class.method`` of the callback; for a process, also whether this
    event starts it (epoch 0) or wakes it, and its generator's name."""
    callback = event.callback
    name = getattr(callback, "__qualname__", type(callback).__name__)
    if name != "Process._resume":
        return name
    process = callback.__self__
    generator = getattr(process._gen, "__qualname__", process.name)
    kind = "start" if event.args[0] == 0 else "wake"
    return f"{name} {kind} {generator}"


def fleet_stage(homes: int, seed: int):
    """The ledger's ``fleet-stage-N`` shape: colocated 5-stage homes, 6 fps,
    2 s of capture and a 1 s tail."""
    fleet = Fleet(FleetConfig(
        homes=homes, seed=seed, workload="stage", strategy="colocated",
        fps_choices=(6.0,), duration_s=2, tail_s=1))
    return fleet.kernel, fleet.pipelines, fleet.run


def scenario(name: str, seed: int):
    home, run_fn = EXAMPLE_SCENARIOS[name](seed)
    return home.kernel, home.pipelines, run_fn


def ledger_workloads() -> dict:
    """The ledger's workloads by name (imported, never changed)."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from benchmarks.ledger.workloads import IMPLS

    return IMPLS


def ledger_workload(name: str, seed: int):
    """A ledger workload built as its job builds it (``prepare`` included,
    outside the count); running it is the job's run phase."""
    impl = ledger_workloads()[name]
    world = impl.build(impl.prepare(seed))
    return world.kernel, world.pipelines, lambda: impl.run(world)


def package_of(filename: str) -> str:
    """The ``repro`` sub-package a code object lives in, else ``other``."""
    _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    return tail.split("/")[0].removesuffix(".py")


def calls(kernel, pipelines, run) -> dict:
    """Run once under a profile hook; Python calls by package and frames
    completed."""
    by_file: Counter[str] = Counter()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            by_file[frame.f_code.co_filename] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    by_package: Counter[str] = Counter()
    for filename, count in by_file.items():
        by_package[package_of(filename)] += count
    frames = sum(p.metrics.counter("frames_completed") for p in pipelines)
    return {
        "calls": sum(by_package.values()),
        "frames_completed": frames,
        "by_package": dict(sorted(by_package.items(),
                                  key=lambda item: (-item[1], item[0]))),
    }


def histogram(kernel, pipelines, run) -> dict:
    """Run once under the observer; events by label and frames completed."""
    observer = CallbackHistogram()
    kernel.add_observer(observer)
    try:
        run()
    finally:
        kernel.remove_observer(observer)
    frames = sum(p.metrics.counter("frames_completed") for p in pipelines)
    return {
        "events": sum(observer.counts.values()),
        "frames_completed": frames,
        "by_callback": dict(observer.counts.most_common()),
    }


def render(result: dict, top: int | None) -> str:
    unit, column = (("calls", "package") if "calls" in result
                    else ("events", "callback"))
    total, frames = result[unit], result["frames_completed"]

    def row(count: int, name: str) -> str:
        per_frame = count / frames if frames else float("nan")
        return f"{count:>8} {per_frame:>7.2f} {count / total:>6.1%}  {name}"

    lines = [f"{total} {unit} / {frames} completed frames"
             f" = {total / frames if frames else float('nan'):.2f} per frame",
             f"{unit:>8} {'/frame':>7} {'share':>6}  {column}"]
    rows = list(result[f"by_{column}"].items())
    lines += [row(count, name) for name, count in rows[:top]]
    if top is not None and rows[top:]:
        rest = sum(count for _, count in rows[top:])
        lines.append(row(rest, f"({len(rows) - top} more)"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="?",
                        help="a tools/check_determinism.py scenario name or a"
                        " ledger workload name (benchmarks/ledger)")
    parser.add_argument("--fleet-stage", type=int, metavar="N",
                        help="N colocated 5-stage homes on one kernel")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=None,
                        help="rows to print (default: all)")
    parser.add_argument("--calls", action="store_true",
                        help="count Python calls by package, not events")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full histogram as JSON")
    args = parser.parse_args(argv)

    if (args.scenario is None) == (args.fleet_stage is None):
        parser.error("give one scenario name or --fleet-stage N")
    base = os.path.basename(args.scenario or "")
    name = base if base.endswith(".py") else base + ".py"
    if args.fleet_stage is not None:
        world = fleet_stage(args.fleet_stage, args.seed)
    elif name in EXAMPLE_SCENARIOS:
        world = scenario(name, args.seed)
    elif args.scenario in ledger_workloads():
        world = ledger_workload(args.scenario, args.seed)
    else:
        parser.error(f"unknown scenario {args.scenario!r}; choose from"
                     f" {sorted([*EXAMPLE_SCENARIOS, *ledger_workloads()])}")
    result = (calls if args.calls else histogram)(*world)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    try:
        print(render(result, args.top), flush=True)
    except BrokenPipeError:  # `| head -1`: the reader has what it wanted
        # point stdout at devnull so the interpreter's exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
