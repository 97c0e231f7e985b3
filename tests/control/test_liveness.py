"""One view of liveness: ``VideoPipe.live_devices``.

Placement (``OnlineOptimizer.replan_now``) and evacuation choose devices
from it. While a failure detector runs, a device that has restarted
(``Device.up``) but not yet answered a heartbeat is still dead to the
detector, and so to both of them. With no detector it is the ``Device.up``
set, so homes without one plan as they always did.
"""

from __future__ import annotations

import repro.pipeline.optimizer as optimizer_module
from repro.monitor.orchestrator import evacuate
from repro.pipeline import OptimizerConfig

from .stage_home import stage_home, stage_pipeline


def crash_until_declared_dead(home, *devices):
    detector = home.enable_failure_detection(
        home_device="phone", period_s=0.25, miss_threshold=2)
    home.run(until=0.1)
    for device in devices:
        home.crash_device(device)
    home.run(until=0.8)
    assert detector.dead_devices() == sorted(devices)
    return detector


def test_a_restarted_device_is_no_replan_candidate_until_it_answers(
        monkeypatch):
    home = stage_home()
    optimizer = home.enable_optimizer(OptimizerConfig(
        fps=8.0, replan_interval_s=100.0, replan_threshold_frac=0.05))
    pipeline = stage_pipeline(home, "a")
    priced = []
    cost_model = optimizer_module.CostModel
    monkeypatch.setattr(
        optimizer_module, "CostModel",
        lambda config, devices, *args, **kwargs: (
            priced.append(sorted(devices))
            or cost_model(config, devices, *args, **kwargs)))
    detector = crash_until_declared_dead(home, "zeta")

    home.restart_device("zeta")
    assert home.devices["zeta"].up and detector.is_dead("zeta")
    assert sorted(home.live_devices()) == ["alpha", "phone"]
    optimizer.replan_now(pipeline)
    assert priced == [["alpha", "phone"]]
    assert "zeta" not in pipeline.placement.assignments.values()

    home.run(until=1.3)  # zeta has answered a heartbeat
    assert detector.dead_devices() == []
    optimizer.replan_now(pipeline)
    assert priced[-1] == ["alpha", "phone", "zeta"]
    assert pipeline.device_of("a_stage") == "zeta"


def test_a_restarted_device_is_no_evacuation_target_until_it_answers():
    home = stage_home()
    pipeline = stage_pipeline(home, "a")
    detector = crash_until_declared_dead(home, "alpha", "zeta")

    home.restart_device("zeta")
    assert home.devices["zeta"].up and detector.is_dead("zeta")
    evacuate(home, [pipeline])
    # the sink goes to the phone, not the faster zeta; the stage needs a
    # container-capable device and none is live
    assert pipeline.device_of("a_sink") == "phone"
    assert pipeline.device_of("a_stage") == "alpha"

    home.run(until=1.3)  # zeta has answered a heartbeat
    evacuate(home, [pipeline])
    assert pipeline.device_of("a_stage") == "zeta"


def test_without_a_detector_live_devices_are_the_up_devices():
    home = stage_home()
    home.crash_device("alpha")
    assert home.detector is None
    assert home.live_devices() == {
        name: device for name, device in home.devices.items() if device.up}
    assert sorted(home.live_devices()) == ["phone", "zeta"]
