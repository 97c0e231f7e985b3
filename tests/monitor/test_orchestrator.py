"""Unit tests for the self-management orchestrator."""

from repro.monitor import Orchestrator
from repro.monitor.orchestrator import Remedy
from repro.sim import Kernel


class TestRemedyMechanics:
    def test_remedy_fires_when_condition_holds(self):
        kernel = Kernel()
        orchestrator = Orchestrator(kernel)
        fired = []
        orchestrator.add_remedy(Remedy(
            kind="r", target="t", condition=lambda: "always",
            action=lambda: fired.append(1), cooldown_s=10.0,
        ))
        orchestrator.start()
        kernel.run(until=3.5)
        assert fired == [1]  # cooldown suppressed re-fires
        [action] = orchestrator.actions
        assert (action.at, action.controller) == (1.0, "orchestrator")
        assert (action.kind, action.target) == ("r", "t")
        assert action.reason == "always"

    def test_cooldown_allows_refire_later(self):
        kernel = Kernel()
        orchestrator = Orchestrator(kernel)
        fired = []
        orchestrator.add_remedy(Remedy(
            kind="r", target="t", condition=lambda: "x",
            action=lambda: fired.append(1), cooldown_s=2.0,
        ))
        orchestrator.start()
        kernel.run(until=6.5)
        assert len(fired) == 3  # t=1, 3, 5

    def test_condition_none_means_no_action(self):
        kernel = Kernel()
        orchestrator = Orchestrator(kernel)
        orchestrator.add_remedy(Remedy(
            kind="r", target="t", condition=lambda: None,
            action=lambda: 1 / 0,
        ))
        orchestrator.start()
        kernel.run(until=5.0)
        assert orchestrator.actions == []

    def test_stop(self):
        kernel = Kernel()
        orchestrator = Orchestrator(kernel)
        fired = []
        orchestrator.add_remedy(Remedy(
            kind="r", target="t", condition=lambda: "x",
            action=lambda: fired.append(1), cooldown_s=0.1,
        ))
        orchestrator.start()
        kernel.run(until=2.5)
        orchestrator.stop()
        assert kernel.pending_events == 0
        kernel.run(until=10.0)
        assert len(fired) == 2

    def test_a_raising_action_is_recorded_not_fatal(self):
        kernel = Kernel()
        orchestrator = Orchestrator(kernel)
        remedy = Remedy(kind="r", target="t", condition=lambda: "x",
                        action=lambda: 1 / 0, cooldown_s=2.0)
        orchestrator.add_remedy(remedy)
        orchestrator.start()
        kernel.run(until=3.5)
        assert [(at, r) for at, r, _ in orchestrator.action_failures] == [
            (1.0, remedy), (3.0, remedy)]
        assert orchestrator.actions == []
