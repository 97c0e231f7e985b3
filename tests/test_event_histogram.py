"""tools/event_histogram.py: the per-callback event profile (smoke)."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.net.link import Link
from repro.sim.process import Process
from repro.sim.signals import Signal

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
    # a process is named by what it runs, and starts apart from wake-ups;
    # a module's worker starts where a process would, and a transfer's
    # arrival is its own kind of event
    by_callback = result["by_callback"]
    assert "Process._resume start VideoSource._capture_loop" in by_callback
    assert {"DeployedModule._start", "Topology._arrive"} <= set(by_callback)


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


def test_a_fleet_frame_costs_at_most_22_events():
    """The exact-count regression of docs/PERF.md "What is an event": the
    ledger's fleet-stage shape took 160.5 events per completed frame when a
    timeout cost two events and a resolved wait one, 106.5 when every job
    handed its result over through a second completion signal, 74.5 when a
    CPU job, a link transfer and a relay each started a process, 50.5 when a
    hand-off made inside a drain took an event of its own, 27.6 when a
    link's airtime and latency took one timer each; it takes 20.6 now, and
    must not silently regrow."""
    result = hist.histogram(*hist.fleet_stage(5, seed=1))
    per_frame = result["events"] / result["frames_completed"]
    assert per_frame <= 22, result["by_callback"]
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
        "ModuleContext._service_ended",
        "Process._resume wake ModuleRuntime._send_remote",
        "ModuleRuntime.send_to_module.<locals>.<lambda>",
        "Process._resume start ServiceHost._run",
        "Process._resume start FleetStageModule.event_received.<locals>.flow",
    ):
        assert gone not in result["by_callback"], gone


def test_a_fleet_frame_costs_at_most_760_calls():
    """The calls twin of the event ceiling (docs/PERF.md "A span is a
    row"): the ledger's fleet-stage shape made 1 213.6 Python calls per
    completed frame, 661.8 of them in ``sim/``, while ``Kernel.now`` was a
    property, a job on a free core built a request signal and a grant and
    went through ``_issue`` → ``succeed`` → ``_dispatch``, each CPU job
    tallied itself through a waiter, and every drain ended in a
    ``hand_off`` of nothing; 805.8 while each frame started 8 processes
    (docs/PERF.md "A frame starts no process"); 765.2, 310.8 of them in
    ``sim/``, while every CPU job and link hop built a signal and each
    module's worker was a process (docs/PERF.md "A wait with one waiter is
    a call"). It makes 723.5 now, 233.6 of them in ``sim/``, and must not
    silently regrow (each ceiling is that count + 5 %)."""
    result = hist.calls(*hist.fleet_stage(5, seed=1))
    frames = result["frames_completed"]
    assert frames > 0
    assert result["by_package"]["sim"] / frames <= 245, result
    assert result["calls"] / frames <= 760, result


def test_a_fleet_frame_starts_no_process(monkeypatch):
    """A handler runs in its module's worker, and a cross-device ship and a
    service dispatch are chains of waiters: the run phase of the
    fleet-stage shape starts no process. It started 8 per completed frame —
    3 stage handlers, 3 service dispatches and 2 ships."""
    kernel, pipelines, run = hist.fleet_stage(5, seed=1)
    started = Counter()
    init = Process.__init__

    def counting(process, kernel, gen, name=None):
        started[getattr(gen, "__qualname__", name)] += 1
        init(process, kernel, gen, name)

    monkeypatch.setattr(Process, "__init__", counting)
    run()
    frames = sum(p.metrics.counter("frames_completed") for p in pipelines)
    assert frames > 0
    assert not started, {name: count / frames
                         for name, count in started.items()}


def test_a_fleet_frame_builds_at_most_15_signals(monkeypatch):
    """A signal is built only where a generator or a second party waits: a
    CPU job, a link hop and a module's worker hand their outcome straight
    to one continuation (docs/PERF.md "A wait with one waiter is a call").
    The run phase of the fleet-stage shape built 40.41 signals per
    completed frame — 12 CPU job ``done``s, 7 link arrivals, 2 relays and
    5.4 mailbox gets among them — and builds 14.0 now."""
    kernel, pipelines, run = hist.fleet_stage(5, seed=1)
    built = Counter()
    init = Signal.__init__

    def counting(signal, kernel, name=None):
        built[name] += 1
        init(signal, kernel, name)

    monkeypatch.setattr(Signal, "__init__", counting)
    run()
    frames = sum(p.metrics.counter("frames_completed") for p in pipelines)
    assert frames > 0
    assert sum(built.values()) / frames <= 15, {
        name: count / frames for name, count in built.items()}


def test_every_transfer_goes_through_link_transfer(monkeypatch):
    """``Link.transfer(link, nbytes)`` is the one way bytes cross a link:
    wrapped as the benchmark ledger wraps it to count ``net.bytes_sent``,
    it sees every byte the links count."""
    kernel, pipelines, run = hist.fleet_stage(5, seed=1)
    links = {}
    for home in run.__self__.homes:  # the Fleet
        topology = home.topology
        for neighbours in topology.graph.values():
            links.update((id(link), link) for link in neighbours.values())
        for device in topology.graph:  # every loopback a run may use
            if topology.has_device(device):
                links[id(topology.loopback(device))] = topology.loopback(device)
    before = sum(link.bytes_sent for link in links.values())
    wrapped = [0]
    transfer = Link.transfer

    def counting(link, nbytes):
        wrapped[0] += nbytes
        return transfer(link, nbytes)

    monkeypatch.setattr(Link, "transfer", counting)
    run()
    sent = sum(link.bytes_sent for link in links.values()) - before
    assert sent > 0 and wrapped[0] == sent


def test_a_call_count_is_the_same_in_two_fresh_processes():
    """``--calls`` is exact: two runs of one small home, each in a fresh
    interpreter under its own hash seed, print the same table."""
    tables = []
    for hash_seed in ("0", "77"):
        done = subprocess.run(
            [sys.executable, _SPEC.origin, "object_tracking", "--calls"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        tables.append(done.stdout)
    assert tables[0] == tables[1]
    head, columns, *rows = tables[0].splitlines()
    calls, frames = int(head.split()[0]), int(head.split()[3])
    assert calls > 0 and frames > 0 and columns.split()[-1] == "package"
    assert sum(int(row.split()[0]) for row in rows) == calls
    assert {row.split()[-1] for row in rows} >= {"sim", "runtime"}


def test_calls_are_split_by_the_package_of_the_called_code():
    assert hist.package_of("/x/src/repro/sim/kernel.py") == "sim"
    assert hist.package_of("/x/src/repro/errors.py") == "errors"
    assert hist.package_of("/usr/lib/python3/json/decoder.py") == "other"
