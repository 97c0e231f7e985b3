"""tools/event_histogram.py: the per-callback event profile (smoke)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "event_histogram",
    Path(__file__).parent.parent / "tools" / "event_histogram.py",
)
hist = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hist)


def test_fleet_histogram_accounts_for_every_event():
    kernel, pipelines, run = hist.fleet_stage(2, seed=1)
    result = hist.histogram(kernel, pipelines, run)
    assert result["frames_completed"] > 0
    assert sum(result["by_callback"].values()) == result["events"]
    assert not kernel._observers  # detached again
    # a process is named by what it runs, and starts apart from wake-ups
    assert "Process._resume start ModuleRuntime._worker" in result["by_callback"]


def test_cli_prints_the_table_and_writes_json(tmp_path, capsys):
    out = tmp_path / "hist.json"
    assert hist.main(["custom_pipeline", "--top", "3", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    written = json.loads(out.read_text())
    assert lines[0].startswith(
        f"{written['events']} events / {written['frames_completed']} completed")
    assert len(lines) == 2 + 3 + 1 and lines[-1].endswith("more)")
    counts = list(written["by_callback"].values())
    assert counts == sorted(counts, reverse=True)


def test_a_closed_pipe_ends_the_cli_quietly():
    """``… | head -1``: no ``BrokenPipeError`` traceback, exit status 0."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, _SPEC.origin, "custom_pipeline"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 0 and done.stderr == b""


def test_a_fleet_frame_costs_at_most_30_events():
    """The exact-count regression of docs/PERF.md "What is an event": the
    ledger's fleet-stage shape took 160.5 events per completed frame when a
    timeout cost two events and a resolved wait one, 106.5 when every job
    handed its result over through a second completion signal, 74.5 when a
    CPU job, a link transfer and a relay each started a process, 50.5 when a
    hand-off made inside a drain took an event of its own; it takes 27.6
    now, and must not silently regrow."""
    result = hist.histogram(*hist.fleet_stage(5, seed=1))
    per_frame = result["events"] / result["frames_completed"]
    assert per_frame <= 30, result["by_callback"]
    # the kinds of event each rule removed are gone, not merely fewer
    for gone in (
        "Kernel._fire_timeout",
        "Process._resume wake Cpu._run",
        "Process._resume wake Topology._relay",
        "Process._resume start Cpu._run",
        "Process._resume start Link._transfer",
        "Process._resume start Topology._relay",
        "Transport.send.<locals>.<lambda>",
        "ModuleRuntime._forward.<locals>.<lambda>",
        "Process._resume wake ModuleRuntime._worker",
        "Process._resume wake FleetStageModule.event_received.<locals>.flow",
        "ModuleContext.call_service.<locals>._count_rejection",
        "Process._resume wake ModuleRuntime._send_remote",
        "ModuleRuntime.send_to_module.<locals>.<lambda>",
        "Process._resume start ServiceHost._run",
        "Process._resume start FleetStageModule.event_received.<locals>.flow",
    ):
        assert gone not in result["by_callback"], gone
