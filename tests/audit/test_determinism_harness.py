"""Unit tests for the determinism harness: taps, diffing, reporting."""

import importlib.util
import json
from pathlib import Path

from repro.audit import (
    EventTap,
    check_determinism,
    first_divergence,
    record_scenario,
    stream_digest,
)
from repro.sim import Kernel

_SPEC = importlib.util.spec_from_file_location(
    "check_determinism_cli",
    Path(__file__).parent.parent.parent / "tools" / "check_determinism.py",
)
cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli)


def toy_scenario(seed):
    """A tiny deterministic scenario: two interleaved kernel processes."""
    kernel = Kernel()
    log = []

    def worker(name, period):
        for n in range(5):
            log.append((kernel.now, name, n))
            yield period

    kernel.process(worker("a", 0.1), name="a")
    kernel.process(worker("b", 0.15 + seed * 0.0), name="b")

    class Home:
        pass

    home = Home()
    home.kernel = kernel

    def run_fn():
        kernel.run()
        return list(log)

    return home, run_fn


_flaky_calls = {"n": 0}


def flaky_scenario(seed):
    """Deliberately nondeterministic: the delay changes between runs."""
    home, _ = toy_scenario(seed)
    kernel = home.kernel
    _flaky_calls["n"] += 1
    kernel.schedule(0.05 * _flaky_calls["n"], lambda: None)

    def run_fn():
        kernel.run()
        return kernel.now

    return home, run_fn


class TestEventTap:
    def test_records_schedule_and_execute_phases(self):
        kernel = Kernel()
        tap = EventTap()
        kernel.add_observer(tap)
        kernel.schedule(0.1, lambda: None)
        kernel.run()
        phases = [r[0] for r in tap.records]
        assert phases == ["S", "X"]

    def test_labels_name_the_callback_and_owner(self):
        kernel = Kernel()
        tap = EventTap()
        kernel.add_observer(tap)

        def gen():
            yield 0.1

        kernel.process(gen(), name="worker-7")
        kernel.run()
        assert any("worker-7" in r[4] for r in tap.records)

    def test_limit_counts_overflow_instead_of_growing(self):
        kernel = Kernel()
        tap = EventTap(limit=3)
        kernel.add_observer(tap)
        for n in range(4):
            kernel.schedule(0.1 * (n + 1), lambda: None)
        kernel.run()
        assert len(tap.records) == 3
        assert tap.overflow == 5  # 1 schedule + 4 executes past the cap


class TestDiff:
    def test_identical_streams_have_no_divergence(self):
        a = [("X", 0.1, 1, 1, "f"), ("X", 0.2, 1, 2, "g")]
        assert first_divergence(a, list(a)) is None

    def test_first_differing_record_is_reported(self):
        a = [("X", 0.1, 1, 1, "f"), ("X", 0.2, 1, 2, "g")]
        b = [("X", 0.1, 1, 1, "f"), ("X", 0.3, 1, 2, "g")]
        d = first_divergence(a, b)
        assert d.index == 1
        assert "t=0.200000000s" in d.describe()
        assert "t=0.300000000s" in d.describe()

    def test_length_mismatch_is_a_divergence(self):
        a = [("X", 0.1, 1, 1, "f")]
        d = first_divergence(a, a + [("X", 0.2, 1, 2, "g")])
        assert d.index == 1
        assert d.first is None
        assert "<stream ended>" in d.describe()


class TestStreamDigest:
    STREAM = [("S", 0.1, 1, 1, "f"), ("X", 0.1, 1, 1, "f"), ("S", 0.2, 0, 2, "g")]

    def test_labels_are_left_out(self):
        renamed = [(*record[:4], "renamed") for record in self.STREAM]
        assert stream_digest(renamed) == stream_digest(self.STREAM)

    def test_every_other_field_and_the_order_count(self):
        base = stream_digest(self.STREAM)
        for index, value in ((0, "X"), (1, 0.25), (2, 2), (3, 9)):
            moved = list(self.STREAM)
            moved[2] = (*moved[2][:index], value, *moved[2][index + 1:])
            assert stream_digest(moved) != base
        assert stream_digest(self.STREAM[::-1]) != base
        assert stream_digest(self.STREAM[:-1]) != base

    def test_report_carries_the_digest_of_the_recorded_stream(self):
        report = check_determinism(toy_scenario, seed=7)
        assert report.stream_digest == stream_digest(
            record_scenario(toy_scenario, 7).events)
        assert report.as_dict()["stream_digest"] == report.stream_digest


class TestDigestFile:
    """``--digests`` / ``--check-digests``: the cross-commit referee."""

    def run_cli(self, monkeypatch, *argv):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        monkeypatch.setattr(cli, "EXAMPLE_SCENARIOS", {"toy.py": toy_scenario})
        return cli.main(list(argv))

    def test_written_digests_check_clean(self, tmp_path, monkeypatch):
        path = tmp_path / "digests.json"
        assert self.run_cli(monkeypatch, "--digests", str(path)) == 0
        written = json.loads(path.read_text())
        report = check_determinism(toy_scenario, seed=7)
        assert written["seed"] == 7
        assert written["scenarios"] == {"toy.py": {
            "events": report.event_count, "sha256": report.stream_digest,
            "fingerprint_sha256": cli.fingerprint_digest(
                report.fingerprints[0])}}
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 0

    def test_a_moved_stream_fails_the_check(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "digests.json"
        self.run_cli(monkeypatch, "--digests", str(path))
        committed = json.loads(path.read_text())
        committed["scenarios"]["toy.py"]["events"] += 1
        path.write_text(json.dumps(committed))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1
        assert "differs from the committed digest" in capsys.readouterr().out

    def test_a_moved_result_fails_the_check(self, tmp_path, monkeypatch, capsys):
        """Same stream, other fingerprint — and a file from before the
        fingerprints existed — both fail, naming the results."""
        path = tmp_path / "digests.json"
        self.run_cli(monkeypatch, "--digests", str(path))
        committed = json.loads(path.read_text())
        committed["scenarios"]["toy.py"]["fingerprint_sha256"] = "0" * 64
        path.write_text(json.dumps(committed))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1
        out = capsys.readouterr().out
        assert "results differ from the committed fingerprint" in out
        assert "event stream differs" not in out
        del committed["scenarios"]["toy.py"]["fingerprint_sha256"]
        path.write_text(json.dumps(committed))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1

    def test_fingerprint_digest_reads_floats_by_repr(self):
        assert cli.fingerprint_digest({"a": 0.1 + 0.2, "b": [1]}) == (
            cli.fingerprint_digest({"b": [1], "a": 0.30000000000000004}))
        assert cli.fingerprint_digest([0.3]) != cli.fingerprint_digest(
            [0.30000000000000004])

    def test_the_check_says_what_it_ran_on(self, tmp_path, monkeypatch, capsys):
        """Versions up front; a mismatch under another interpreter reads
        "regenerate on <this one>", under the same one it does not."""
        path = tmp_path / "digests.json"
        self.run_cli(monkeypatch, "--digests", str(path))
        committed = json.loads(path.read_text())
        here = cli.describe_environment(cli.environment())
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 0
        assert f"generated on {here}; running on {here}" in (
            capsys.readouterr().out)
        committed["scenarios"]["toy.py"]["sha256"] = "0" * 64
        path.write_text(json.dumps(committed))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1
        assert "regenerate on" not in capsys.readouterr().out
        committed["python"] = "3.99.0"
        path.write_text(json.dumps(committed))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1
        out = capsys.readouterr().out
        assert "generated on python 3.99.0" in out
        assert f"regenerate on {here}" in out

    def test_a_scenario_without_a_digest_fails_the_check(
            self, tmp_path, monkeypatch):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps({"seed": 7, "scenarios": {}}))
        assert self.run_cli(monkeypatch, "--check-digests", str(path)) == 1


class TestCheckDeterminism:
    def test_deterministic_scenario_passes(self):
        report = check_determinism(toy_scenario, seed=7)
        assert report.ok
        assert report.event_count > 0
        assert "deterministic over" in report.describe()
        assert report.as_dict()["ok"] is True

    def test_nondeterministic_scenario_reports_divergence(self):
        report = check_determinism(flaky_scenario, seed=7, name="flaky")
        assert not report.ok
        assert report.divergence is not None
        text = report.describe()
        assert "NOT deterministic" in text
        assert "diverge at record" in text
        assert report.as_dict()["divergence"]

    def test_record_scenario_detaches_the_tap(self):
        home, _ = toy_scenario(3)
        record_scenario(lambda s: toy_scenario(s), 3)
        # a fresh scenario's kernel holds no observers after recording
        _, run_fn = toy_scenario(3)
        assert run_fn()  # still runs clean


class TestFixture:
    def test_assert_deterministic_fixture(self, assert_deterministic):
        report = assert_deterministic(toy_scenario, seed=5)
        assert report.ok
