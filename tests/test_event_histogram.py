"""tools/event_histogram.py: the per-callback event profile (smoke)."""

import importlib.util
import json
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
    assert "Process._resume start Cpu._run" in result["by_callback"]
    assert "Process._resume wake ModuleRuntime._worker" in result["by_callback"]


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


def test_a_fleet_frame_costs_at_most_112_events():
    """The exact-count regression of "a process runs until it has to wait"
    (docs/PERF.md "What is an event"): the ledger's fleet-stage shape took
    160.5 events per completed frame when a timeout cost two events and a
    resolved wait one; it takes 106.5 now, and must not silently regrow."""
    result = hist.histogram(*hist.fleet_stage(5, seed=1))
    per_frame = result["events"] / result["frames_completed"]
    assert per_frame <= 112, result["by_callback"]
    # the two kinds of event the rule removed are gone, not merely fewer
    assert "Kernel._fire_timeout" not in result["by_callback"]
    assert "Process._resume wake Cpu._run" not in result["by_callback"]
