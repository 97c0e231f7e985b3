"""SLO guardian under a load ramp: static vs closed-loop control.

The fitness pipeline runs alone, then three gesture "guest" pipelines land
on the same testbed at 1.5x the base frame rate — roughly a 3x compute
ramp on the shared desktop. The **static** variant has no controller and
no autoscaler: its p99 blows through the SLO for the whole ramp. The
**controller** variant runs the autoscaler plus the
:class:`~repro.slo.controller.SLOController`, which walks the degradation
ladder (replica scale-up, then resolution) until the SLO holds, and
reverts every rung after the guests leave.

A third leg exercises admission control: with a utilization threshold set
just above the steady-state load, a late guest is rejected at deploy time
(:class:`~repro.errors.AdmissionError`) instead of being allowed to sink
the pipelines already holding an SLO.

Set ``REPRO_SLO_OUT`` to persist the attainment numbers as a JSON
artifact (CI uploads it).
"""

import json
import os

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.apps.gesture import gesture_pipeline_config
from repro.errors import AdmissionError
from repro.metrics import format_table
from repro.slo import SLO, SLOConfig
from repro.slo.spec import attainment

from .conftest import FAST, fitness_recognizer, gesture_recognizer  # noqa: F401

#: The pipeline's objective: tight enough that the 3-guest ramp breaks it
#: on an uncontrolled testbed, loose enough that the degraded ladder
#: configuration holds it.
SLO_TARGET = SLO(p99_latency_s=0.15, min_fps=4.0, window_s=2.0)

#: Controller knobs tuned for a bench-scale run: a 0.25 s check interval
#: and sub-second hysteresis so the ladder settles within ~2 s of the
#: ramp. ``use_optimizer=False`` keeps the replan rung out of the ladder —
#: this scenario stresses the knob rungs, not placement.
CONTROLLER_CONFIG = SLOConfig(
    check_interval_s=0.25,
    hysteresis_s=0.75,
    recovery_hold_s=1.0,
    use_optimizer=False,
)

BASE_FPS = 10.0
GUEST_FPS = 15.0
GUESTS = 3
RAMP_START_S = 8.0
RAMP_END_S = 14.0 if FAST else 20.0
#: Seconds after the ramp start before attainment is scored: the ladder
#: needs a couple of hysteresis periods to walk down to a configuration
#: that holds.
STABILIZE_S = 4.0
END_S = RAMP_END_S + 10.0


def guest_config(index: int, fps: float = GUEST_FPS):
    """One gesture pipeline with module names made unique per guest (module
    names are per-device unique; three copies of the same app must not
    collide on the shared hosts)."""
    config = gesture_pipeline_config(
        name=f"guest{index}", fps=fps,
        base_port=6000 + 20 * index, source_device="tv",
    )
    for module in config.modules:
        module.name = f"g{index}_{module.name}"
        module.next_modules = [f"g{index}_{n}" for n in module.next_modules]
    config.source = f"g{index}_gesture_video_module"
    return config


def build_home(fitness_recognizer, gesture_recognizer):
    from repro.apps.gesture import install_gesture_services

    home = VideoPipe.paper_testbed(seed=7)
    install_fitness_services(home, recognizer=fitness_recognizer)
    install_gesture_services(home, recognizer=gesture_recognizer)
    return home


def run_ramp(home, *, controlled: bool):
    """Deploy fitness, ramp the guests in and out, return (home, pipeline)."""
    if controlled:
        home.enable_autoscaling()
        home.enable_slo(config=CONTROLLER_CONFIG)
    pipeline = home.deploy_pipeline(
        fitness_pipeline_config(fps=BASE_FPS), slo=SLO_TARGET,
        admission="bypass",
    )

    def guests_arrive():
        for index in range(GUESTS):
            home.deploy_pipeline(guest_config(index), admission="bypass")

    def guests_leave():
        for candidate in home.pipelines:
            if candidate.config.name.startswith("guest"):
                candidate.stop()

    home.kernel.schedule(RAMP_START_S, guests_arrive)
    home.kernel.schedule(RAMP_END_S, guests_leave)
    home.run_for(END_S)
    return pipeline


def ramp_attainment(pipeline) -> float:
    return attainment(
        SLO_TARGET, pipeline.metrics.latency_events(),
        start=RAMP_START_S + STABILIZE_S, end=RAMP_END_S,
    )


def test_slo_guardian_ramp(benchmark, tmp_path,
                           fitness_recognizer, gesture_recognizer):
    results = {}

    def run():
        static_pipe = run_ramp(
            build_home(fitness_recognizer, gesture_recognizer),
            controlled=False,
        )
        controlled_home = build_home(fitness_recognizer, gesture_recognizer)
        controlled_pipe = run_ramp(controlled_home, controlled=True)
        results["static"] = {
            "ramp_attainment": ramp_attainment(static_pipe),
            "actions": 0,
        }
        results["controller"] = {
            "ramp_attainment": ramp_attainment(controlled_pipe),
            "actions": len(controlled_home.slo.ladder_actions()),
        }
        results["_home"] = controlled_home
        results["_pipe"] = controlled_pipe
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    static = results["static"]["ramp_attainment"]
    controlled = results["controller"]["ramp_attainment"]
    actions = results["controller"]["actions"]

    print()
    print(format_table(
        ["variant", "ramp attainment %", "ladder actions"],
        [["static", static * 100, 0],
         ["controller", controlled * 100, actions]],
        title=(f"SLO guardian — {GUESTS} guests at {GUEST_FPS:g} fps over"
               f" [{RAMP_START_S:g}, {RAMP_END_S:g}] s"),
        float_format="{:.1f}",
    ))

    artifact = os.environ.get(
        "REPRO_SLO_OUT", str(tmp_path / "slo_tuning.json")
    )
    os.makedirs(os.path.dirname(os.path.abspath(artifact)), exist_ok=True)
    with open(artifact, "w") as fh:
        json.dump({
            "slo": SLO_TARGET.as_dict(),
            "guests": GUESTS,
            "guest_fps": GUEST_FPS,
            "ramp_s": [RAMP_START_S, RAMP_END_S],
            "static_attainment": static,
            "controller_attainment": controlled,
            "ladder_actions": actions,
            "fast": FAST,
        }, fh, indent=2)

    benchmark.extra_info["static_attainment"] = static
    benchmark.extra_info["controller_attainment"] = controlled
    benchmark.extra_info["ladder_actions"] = actions

    home, pipeline = results["_home"], results["_pipe"]
    assert actions > 0, "controller never acted on the ramp"
    # the ladder is fully reverted after the guests leave: full fidelity
    from repro.slo.ladder import find_source

    enrollment = home.slo.enrollment(pipeline.name)
    source = find_source(pipeline)
    assert enrollment.depth == 0
    assert not source.paused
    assert source.fps == BASE_FPS
    assert (source.camera.width, source.camera.height) == (640, 480)
    for host in home.registry.hosts_of("pose_detector"):
        assert host.service.reference_cost_s == 0.053

    if FAST:
        return  # smoke mode: a shorter ramp; skip the attainment gates
    assert static < 0.50, f"static baseline held {static:.1%}; ramp too weak"
    assert controlled >= 0.90, f"controller held only {controlled:.1%}"


def test_slo_admission_gate(benchmark, fitness_recognizer,
                            gesture_recognizer):
    """With a utilization threshold, a guest that would sink the testbed is
    rejected at deploy time and the decision is auditable."""
    outcome = {}

    def run():
        home = build_home(fitness_recognizer, gesture_recognizer)
        home.enable_slo(config=SLOConfig(admission_threshold=0.25))
        home.deploy_pipeline(
            fitness_pipeline_config(fps=BASE_FPS), slo=SLO_TARGET,
        )
        admitted = home.deploy_pipeline(guest_config(0, fps=12.0))
        rejected = None
        try:
            home.deploy_pipeline(guest_config(1, fps=15.0))
        except AdmissionError as exc:
            rejected = exc.decision
        home.run_for(4.0)
        outcome["admitted"] = admitted is not None
        outcome["rejected"] = rejected
        outcome["status"] = home.snapshot()["slo"]
        return outcome

    benchmark.pedantic(run, rounds=1, iterations=1)

    rejected = outcome["rejected"]
    status = outcome["status"]
    print()
    print(format_table(
        ["metric", "value"],
        [["requested", status["deploys_requested"]],
         ["rejected", status["deploys_rejected"]],
         ["worst utilization", rejected.worst_utilization if rejected else 0],
         ["threshold", rejected.threshold if rejected else 0]],
        title="Admission gate — threshold 0.25",
        float_format="{:.3f}",
    ))

    benchmark.extra_info["deploys_rejected"] = status["deploys_rejected"]

    assert outcome["admitted"]
    assert rejected is not None, "overloading guest was admitted"
    assert rejected.worst_utilization > rejected.threshold
    assert status["deploys_rejected"] >= 1
    assert status["deploys_requested"] == (
        status["deploys_deployed"] + status["deploys_rejected"])
