"""Unit tests for the self-management orchestrator."""

import pytest

from repro.monitor import Monitor, Orchestrator
from repro.monitor.orchestrator import Remedy
from repro.sim import Kernel


class TestRemedyMechanics:
    def test_period_validated(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            Orchestrator(kernel, Monitor(kernel), period_s=0)

    def test_remedy_fires_when_condition_holds(self):
        kernel = Kernel()
        monitor = Monitor(kernel)
        orchestrator = Orchestrator(kernel, monitor, period_s=1.0)
        fired = []
        orchestrator.add_remedy(Remedy(
            name="r", condition=lambda m: "always", action=lambda: fired.append(1),
            cooldown_s=10.0,
        ))
        orchestrator.start()
        kernel.run(until=3.5)
        assert fired == [1]  # cooldown suppressed re-fires
        assert orchestrator.actions[0].remedy == "r"
        assert orchestrator.actions[0].description == "always"

    def test_cooldown_allows_refire_later(self):
        kernel = Kernel()
        monitor = Monitor(kernel)
        orchestrator = Orchestrator(kernel, monitor, period_s=1.0)
        fired = []
        orchestrator.add_remedy(Remedy(
            name="r", condition=lambda m: "x", action=lambda: fired.append(1),
            cooldown_s=2.0,
        ))
        orchestrator.start()
        kernel.run(until=6.5)
        assert len(fired) == 3  # t=1, 3, 5

    def test_max_firings_cap(self):
        kernel = Kernel()
        monitor = Monitor(kernel)
        orchestrator = Orchestrator(kernel, monitor, period_s=1.0)
        fired = []
        orchestrator.add_remedy(Remedy(
            name="r", condition=lambda m: "x", action=lambda: fired.append(1),
            cooldown_s=0.5, max_firings=2,
        ))
        orchestrator.start()
        kernel.run(until=10.0)
        assert len(fired) == 2

    def test_condition_none_means_no_action(self):
        kernel = Kernel()
        monitor = Monitor(kernel)
        orchestrator = Orchestrator(kernel, monitor, period_s=1.0)
        orchestrator.add_remedy(Remedy(
            name="r", condition=lambda m: None, action=lambda: 1 / 0,
        ))
        orchestrator.start()
        kernel.run(until=5.0)
        assert orchestrator.actions == []

    def test_stop(self):
        kernel = Kernel()
        monitor = Monitor(kernel)
        orchestrator = Orchestrator(kernel, monitor, period_s=1.0)
        fired = []
        orchestrator.add_remedy(Remedy(
            name="r", condition=lambda m: "x", action=lambda: fired.append(1),
            cooldown_s=0.1,
        ))
        orchestrator.start()
        kernel.run(until=2.5)
        orchestrator.stop()
        kernel.run(until=10.0)
        assert len(fired) == 2

