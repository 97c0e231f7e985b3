#!/usr/bin/env python3
"""Quickstart: deploy the paper's fitness pipeline and read its metrics.

Builds the §5.1 testbed (2018 flagship phone + desktop + 4K TV on home
Wi-Fi), installs the four fitness services where Fig. 4 puts them, deploys
the Listing-1 pipeline, streams 30 seconds of a synthetic squat workout and
prints throughput plus per-stage latency.

Run:  python examples/quickstart.py
"""

from repro import VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)


def build(seed=7, fps=20.0, duration_s=30.0, recognizer=None):
    """The testbed with the fitness pipeline deployed: (home, pipeline,
    services)."""
    # 1. The home: three heterogeneous devices on one Wi-Fi network.
    home = VideoPipe.paper_testbed(seed=seed)

    # 2. Services: pose + activity in containers on the desktop; rep counter
    #    + display native on the TV (Fig. 4). Without a *recognizer*, the kNN
    #    activity model is trained on synthetic workout recordings inside.
    services = install_fitness_services(home, recognizer=recognizer)

    # 3. The application DAG (Listing 1), placed by co-location.
    app = FitnessApp(home, services, architecture="videopipe")
    pipeline = app.deploy(fitness_pipeline_config(fps=fps, duration_s=duration_s))
    return home, pipeline, services


def main() -> None:
    home, pipeline, services = build()

    print("placement:")
    for name in pipeline.module_names():
        print(f"  {name:28s} -> {pipeline.device_of(name)}")

    # 4. Run 30 simulated seconds (finishes in well under a wall second).
    home.run(until=31.0)

    # 5. Read the evaluation metrics.
    fps = pipeline.metrics.throughput_fps(31.0, warmup_s=2.0)
    print(f"\nend-to-end frame rate: {fps:.2f} fps (20 fps source)")
    print("per-stage mean latency (ms):")
    for stage, ms in sorted(pipeline.metrics.stage_means_ms().items()):
        print(f"  {stage:20s} {ms:7.1f}")

    sink = services.sink
    last = sink.frames[-1]
    print(f"\nTV displayed {sink.count} frames;"
          f" last overlay: activity={last.label!r} reps={last.reps}")


if __name__ == "__main__":
    main()
