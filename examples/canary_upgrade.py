#!/usr/bin/env python3
"""Live operations: roll a new pose-detector version onto a running home.

Deploys the Fig. 4 fitness pipeline, streams it at 8 FPS, then — without
stopping anything — asks for a v1 -> v2 upgrade of the pose-detector
module. The candidate is deployed beside v1 on the same device, live
frames are mirrored to it off the credit path, and the canary judge
compares its p99 / error rate / backlog against v1's trailing window
before promoting it into the live address. The invariant auditor watches
the whole swap, and every frame's per-hop version lineage is recorded.

Run:  python examples/canary_upgrade.py
"""

from repro import CanaryPolicy, VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)

MODULE = "pose_detector_module"


def build(seed=7, fps=8.0, duration_s=20.0, recognizer=None):
    """The paper testbed with live-ops on and the fitness pipeline at v1:
    (home, pipeline)."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.enable_liveops()

    services = install_fitness_services(home, recognizer=recognizer)
    app = FitnessApp(home, services)
    pipeline = app.deploy(fitness_pipeline_config(fps=fps, duration_s=duration_s))
    return home, pipeline


def main() -> None:
    # 1. The home, with the invariant auditor watching the whole swap (on
    #    here, not in build(): the determinism harness audits its own run of
    #    build()'s home and compares it with a bare one).
    home, pipeline = build()
    home.enable_audit()

    # 2. Let v1 serve for a few seconds to build its health baseline.
    home.run(until=3.0)
    print(f"{MODULE} serving at"
          f" {pipeline.wiring.version_of(MODULE)},"
          f" {pipeline.metrics.counter('frames_completed')} frames done")

    # 3. Ask for the upgrade. v2 starts as a mirrored canary — the live
    #    pipeline keeps running on v1 while the judge gathers evidence.
    upgrade = home.upgrade_module(
        pipeline, MODULE,
        policy=CanaryPolicy(min_mirrored=8, decision_timeout_s=8.0),
    )
    print(f"canary in flight: {upgrade.from_version} ->"
          f" {upgrade.to_version} (shadow {upgrade.shadow_name!r})")

    # 4. Run the stream out. The judge promotes or rolls back on its own.
    home.run(until=21.0)

    print(f"\nverdict: {upgrade.state} — {upgrade.reason}")
    if upgrade.state == "promoted":
        print(f"auto-promoted at t={upgrade.decided_at:.2f}s;"
              f" live version is now"
              f" {pipeline.wiring.version_of(MODULE)}")
    dropped = pipeline.metrics.counter("frames_dropped")
    print(f"{'zero frames lost' if dropped == 0 else f'{dropped} LOST'}"
          f" across the swap;"
          f" {pipeline.metrics.counter('frames_completed')} completed")
    print(f"mirror accounting: {upgrade.mirrored_frames} mirrored ="
          f" {upgrade.shadow_metrics.counter('frames_completed')} completed"
          f" + {upgrade.shadow_metrics.counter('frames_dropped')} dropped")
    print("audit:", "clean" if home.check_invariants() == []
          else home.auditor.report())

    # 5. Per-frame lineage: which build touched which frame.
    lineage = home.liveops.lineage
    v1_frame = v2_frame = None
    for key in lineage._records:
        versions = lineage.versions_of(*key)
        if any(v == f"{MODULE}@v1" for v in versions) and v1_frame is None:
            v1_frame = key
        if any(v == f"{MODULE}@v2" for v in versions) and v2_frame is None:
            v2_frame = key
    print(f"\nlineage recorded for {lineage.frame_count} frames:")
    for label, key in (("before swap", v1_frame), ("after swap", v2_frame)):
        if key is None:
            continue
        print(f"  frame {key[1]} ({label}): "
              + " -> ".join(lineage.versions_of(*key)))


if __name__ == "__main__":
    main()
