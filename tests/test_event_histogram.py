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
