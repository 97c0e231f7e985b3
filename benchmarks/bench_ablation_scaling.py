"""A2 — §5.2.2 / §7: scaling the shared pose service.

Paper: "It also implies that we should scale the services at this point,
which is convenient in our design as the services are stateless. [...] For
future work, we aim to [...] scale up services automatically based on
workload." Both halves are measured here: static replicas and the
autoscaler.
"""

from repro.metrics import format_table
from repro.services import ScalingPolicy

from .conftest import FAST, run_shared


def test_scaling_restores_shared_throughput(benchmark, fitness_recognizer,
                                            gesture_recognizer):
    results = {}

    def run():
        # saturating source rate, one shared pose worker
        results["1 replica"] = run_shared(
            fitness_recognizer, gesture_recognizer, fps=30.0, pose_replicas=1
        )[:2]
        # statically provisioned second replica
        results["2 replicas"] = run_shared(
            fitness_recognizer, gesture_recognizer, fps=30.0, pose_replicas=2
        )[:2]
        # the autoscaler discovers the same answer from queue pressure
        f_fit, f_gest, home = run_shared(
            fitness_recognizer, gesture_recognizer, fps=30.0, pose_replicas=1,
            autoscale_policy=ScalingPolicy(
                check_interval_s=0.25, queue_threshold=0.75,
                max_replicas=2,
            ),
        )
        results["autoscaled"] = (f_fit, f_gest)
        results["events"] = list(home.autoscaler.events)
        results["final_replicas"] = home.registry.any_host("pose_detector").replicas
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["configuration", "fitness FPS", "gesture FPS"],
        [[name, fps[0], fps[1]]
         for name, fps in results.items()
         if name in ("1 replica", "2 replicas", "autoscaled")],
        title="§7 ablation — pose service scaling at a 30 FPS source",
    ))
    for event in results["events"]:
        print(f"  autoscaler: {event.service} {event.from_replicas}->"
              f"{event.to_replicas} replicas at t={event.at:.2f}s"
              f" (avg queue {event.avg_queue:.1f})")

    benchmark.extra_info["one_replica_fitness_fps"] = round(results["1 replica"][0], 2)
    benchmark.extra_info["two_replicas_fitness_fps"] = round(results["2 replicas"][0], 2)
    benchmark.extra_info["autoscaled_fitness_fps"] = round(results["autoscaled"][0], 2)

    one, two, auto = (results["1 replica"], results["2 replicas"],
                      results["autoscaled"])
    if FAST:
        return  # smoke mode: shape assertions need the full window
    # a second replica lifts both pipelines
    assert two[0] > one[0] + 0.5
    assert two[1] > one[1] + 0.5
    # the autoscaler actually fired and closed most of the gap
    assert results["events"], "autoscaler never scaled"
    assert results["final_replicas"] == 2
    assert auto[0] > one[0]
