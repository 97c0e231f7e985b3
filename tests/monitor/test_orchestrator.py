"""The evacuation tick: one ticker, one action per pipeline per tick.

The home and pipelines are :mod:`tests.control.stage_home`'s.
"""

from __future__ import annotations

from repro.sim import Kernel

from ..control.stage_home import stage_home, stage_pipeline


def test_one_ticker_one_action_per_pipeline_per_tick(monkeypatch):
    home = stage_home()
    first, second = stage_pipeline(home, "a"), stage_pipeline(home, "b")
    detector = home.enable_failure_detection(
        home_device="phone", period_s=0.25, miss_threshold=2)
    tickers = []
    every = Kernel.every
    monkeypatch.setattr(Kernel, "every", lambda kernel, *args, **kwargs: (
        tickers.append(args[1].__qualname__) or every(kernel, *args, **kwargs)))
    assert home.enable_self_healing(first) is detector
    assert home.enable_self_healing(first) is detector
    assert home.enable_self_healing(second) is detector
    assert tickers == ["evacuate"]

    home.run(until=0.1)
    home.crash_device("alpha")
    home.crash_device("zeta")
    home.run(until=3.5)
    # the sinks left for the phone at the first tick; the stages, with no
    # container-capable device alive, stay stranded and are named each tick
    assert [(a.at, a.target, a.reason) for a in home.actions
            if a.controller == "orchestrator"] == [
        (1.0, "a", "dead 'alpha' still hosts a_sink, a_stage"),
        (1.0, "b", "dead 'alpha' still hosts b_sink, b_stage"),
        (2.0, "a", "dead 'alpha' still hosts a_stage"),
        (2.0, "b", "dead 'alpha' still hosts b_stage"),
        (3.0, "a", "dead 'alpha' still hosts a_stage"),
        (3.0, "b", "dead 'alpha' still hosts b_stage")]
    for pipeline in (first, second):
        assert pipeline.device_of(f"{pipeline.name}_sink") == "phone"
        assert pipeline.device_of(f"{pipeline.name}_stage") == "alpha"
        assert pipeline.metrics.counter("recovery_migrations") == 1

    home.restart_device("zeta")
    home.run(until=5.5)
    assert [(a.at, a.target) for a in home.actions
            if a.controller == "orchestrator" and a.at > 3.0] == [
        (4.0, "a"), (4.0, "b")]
    for pipeline in (first, second):
        assert pipeline.device_of(f"{pipeline.name}_stage") == "zeta"
        # each stranded module moved once
        assert pipeline.metrics.counter("recovery_migrations") == 2
        assert pipeline.metrics.counter("migrations") == 2


def test_no_dead_device_no_action():
    home = stage_home()
    pipeline = stage_pipeline(home, "a")
    home.enable_self_healing(pipeline)
    home.run(until=3.5)
    assert [a for a in home.actions if a.controller == "orchestrator"] == []
    assert pipeline.metrics.counter("recovery_migrations") == 0
