"""Integration: the invariant auditor on the fitness pipeline.

The issue's acceptance bar, checked end to end:

1. **Zero perturbation** — an audited run of each Fig. 6 architecture is
   bit-for-bit identical to an unaudited one: same metrics fingerprint and
   same trace export (the auditor is a passive observer, like tracing).
2. **Clean on correct code** — a full run over both architectures ends
   with zero violations at quiesce.
3. **Facade wiring** — ``enable_audit`` is idempotent, ``REPRO_AUDIT``
   auto-enables with ``source == "env"``, ``check_invariants`` demands an
   enabled auditor, and the monitor exposes the audit probe.
"""

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.core import VideoPipe
from repro.errors import ConfigError

DURATION = 8.0
RUN_UNTIL = 9.0


def run(recognizer, audit=False, architecture="videopipe", seed=11,
        trace=False, monitor=False):
    home = VideoPipe.paper_testbed(seed=seed)
    auditor = home.enable_audit() if audit else None
    tracer = home.enable_tracing() if trace else None
    if monitor:
        home.enable_monitoring()
    baseline = architecture == "baseline"
    services = install_fitness_services(home, recognizer=recognizer,
                                        baseline_layout=baseline)
    app = FitnessApp(home, services, architecture=architecture)
    pipeline = app.deploy(fitness_pipeline_config(fps=10.0,
                                                  duration_s=DURATION))
    home.run(until=RUN_UNTIL)
    return home, pipeline, auditor, tracer


def fingerprint(pipeline):
    metrics = pipeline.metrics
    return (
        metrics.counter("frames_completed"),
        metrics.counter("frames_entered"),
        metrics.counter("frames_dropped"),
        tuple(metrics.total_latencies),
        tuple(sorted(metrics.stage_means_ms().items())),
    )


class TestZeroPerturbation:
    @pytest.mark.parametrize("architecture", ["videopipe", "baseline"])
    def test_audited_run_is_bit_for_bit_identical(self, fitness_recognizer,
                                                  architecture):
        _, plain, _, _ = run(fitness_recognizer, audit=False,
                             architecture=architecture)
        home, audited, auditor, _ = run(fitness_recognizer, audit=True,
                                        architecture=architecture)
        assert fingerprint(audited) == fingerprint(plain)
        assert auditor.check_quiesce() == [], auditor.report()
        assert home.kernel.pending_events == 0

    @pytest.mark.parametrize("architecture", ["videopipe", "baseline"])
    def test_trace_export_matches_under_audit(self, fitness_recognizer,
                                              architecture):
        _, _, _, t_plain = run(fitness_recognizer, audit=False, trace=True,
                               architecture=architecture)
        _, _, auditor, t_audit = run(fitness_recognizer, audit=True,
                                     trace=True, architecture=architecture)
        assert [(s.name, s.category, s.start, s.end) for s in t_plain.spans] \
            == [(s.name, s.category, s.start, s.end) for s in t_audit.spans]
        assert auditor.check_quiesce() == [], auditor.report()

    def test_audited_runs_are_deterministic(self, fitness_recognizer):
        _, p1, a1, _ = run(fitness_recognizer, audit=True)
        _, p2, a2, _ = run(fitness_recognizer, audit=True)
        assert fingerprint(p1) == fingerprint(p2)
        assert a1.checks_run == a2.checks_run


class TestCleanOnCorrectCode:
    def test_full_run_quiesces_clean(self, fitness_recognizer):
        home, pipeline, auditor, _ = run(fitness_recognizer, audit=True)
        assert pipeline.metrics.counter("frames_completed") > 30
        assert home.check_invariants() == []
        # everything the facade wired got watched
        assert all(device.frame_store.observer.auditor is auditor
                   for device in home.devices.values())
        assert home.transport.observer.auditor is auditor
        assert auditor.watch_metrics(pipeline.metrics) in pipeline.wiring.observers
        assert home.actions.observer.auditor is auditor


class TestFacadeWiring:
    def test_enable_audit_is_idempotent(self):
        home = VideoPipe.paper_testbed(seed=11)
        first = home.enable_audit()
        assert home.enable_audit() is first
        assert home.auditor is first

    def test_check_invariants_requires_an_auditor(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home = VideoPipe.paper_testbed(seed=11)
        with pytest.raises(ConfigError, match="enable_audit"):
            home.check_invariants()

    def test_env_var_enables_with_env_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        home = VideoPipe(seed=11)
        assert home.auditor is not None
        assert home.auditor.source == "env"

    def test_monitor_exposes_audit_probe(self, fitness_recognizer):
        home, _, auditor, _ = run(fitness_recognizer, audit=True,
                                  monitor=True)
        assert home.monitor.latest("audit", "violations") == 0.0
        assert home.monitor.latest("audit", "checks_run") > 0.0
        assert auditor.checks_run > 0
