#!/usr/bin/env python3
"""Executed kernel events per completed frame, by callback.

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

Usage:
    python tools/event_histogram.py quickstart            # a determinism scenario
    python tools/event_histogram.py --fleet-stage 90      # the ledger's fleet shape
    python tools/event_histogram.py --fleet-stage 5 --top 12 --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.audit.scenarios import EXAMPLE_SCENARIOS  # noqa: E402
from repro.fleet import Fleet, FleetConfig  # noqa: E402


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
    events, frames = result["events"], result["frames_completed"]

    def row(count: int, name: str) -> str:
        per_frame = count / frames if frames else float("nan")
        return f"{count:>8} {per_frame:>7.2f} {count / events:>6.1%}  {name}"

    lines = [f"{events} events / {frames} completed frames"
             f" = {events / frames if frames else float('nan'):.2f} per frame",
             f"{'events':>8} {'/frame':>7} {'share':>6}  callback"]
    rows = list(result["by_callback"].items())
    lines += [row(count, name) for name, count in rows[:top]]
    if top is not None and rows[top:]:
        rest = sum(count for _, count in rows[top:])
        lines.append(row(rest, f"({len(rows) - top} more)"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="?",
                        help="a tools/check_determinism.py scenario name")
    parser.add_argument("--fleet-stage", type=int, metavar="N",
                        help="N colocated 5-stage homes on one kernel")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=None,
                        help="rows to print (default: all)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full histogram as JSON")
    args = parser.parse_args(argv)

    if (args.scenario is None) == (args.fleet_stage is None):
        parser.error("give one scenario name or --fleet-stage N")
    if args.fleet_stage is not None:
        world = fleet_stage(args.fleet_stage, args.seed)
    else:
        base = os.path.basename(args.scenario)
        name = base if base.endswith(".py") else base + ".py"
        if name not in EXAMPLE_SCENARIOS:
            parser.error(f"unknown scenario {args.scenario!r}; choose from"
                         f" {sorted(EXAMPLE_SCENARIOS)}")
        world = scenario(name, args.seed)
    result = histogram(*world)
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
