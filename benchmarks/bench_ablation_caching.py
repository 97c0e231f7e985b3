"""A4 — ablation: the service-layer fast path (dedup / cache / batching).

Three questions, one table each:

* How much of the static-scene win comes from frame dedup alone vs the
  result cache on top? (Frozen 60 FPS feed, feature ladder.)
* Does micro-batching form real batches under queued shared load, and what
  does the dispatch-size distribution look like? (Fitness in push mode plus
  the gesture pipeline, sharing one pose service.)
* Is the fast path *safely* off by default? (An all-features-off PerfConfig
  must reproduce the untouched home bit-for-bit.)
"""

from repro.metrics import format_histogram, format_table, weighted_mean
from repro.pipeline import PerfConfig

from .conftest import FAST, run_fitness, run_shared

LADDER = (
    ("off", None),
    ("dedup", PerfConfig(frame_dedup=True, result_cache=False,
                         batching=False)),
    ("dedup+cache", PerfConfig(frame_dedup=True, result_cache=True,
                               batching=False)),
)

BATCHING_ONLY = PerfConfig(frame_dedup=False, result_cache=False,
                           batching=True, max_wait_s=0.008)

ALL_OFF = PerfConfig(frame_dedup=False, result_cache=False, batching=False)


def test_caching_ablation_static_scene(benchmark, fitness_recognizer):
    results = {}

    def run():
        for label, perf in LADDER:
            fps, _, home = run_fitness(fitness_recognizer, "videopipe",
                                       fps=60.0, static_scene=True, perf=perf)
            results[label] = (fps, home.perf_stats())
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    base_fps = results["off"][0]
    print()
    print(format_table(
        ["Fast path", "FPS", "speedup", "dedup ratio", "cache hit rate"],
        [[label, fps, fps / base_fps,
          stats["dedup"]["ratio"], stats["cache"]["hit_rate"]]
         for label, (fps, stats) in results.items()],
        title="Static scene, 60 FPS source — feature ladder",
        float_format="{:.2f}",
    ))
    for label, (fps, _) in results.items():
        benchmark.extra_info[f"fps_{label.replace('+', '_')}"] = round(fps, 2)

    dedup_stats = results["dedup"][1]
    full_fps, full_stats = results["dedup+cache"]
    # dedup alone collapses the frozen feed to ~one stored frame
    assert dedup_stats["dedup"]["ratio"] > 0.9
    assert dedup_stats["dedup"]["bytes_saved"] > 0
    if FAST:
        return  # smoke mode: shape assertions need the full window
    # the cache is where the throughput win comes from
    assert full_stats["cache"]["hit_rate"] > 0.5
    assert full_fps >= 2.0 * base_fps
    assert full_fps > results["dedup"][0]


def test_batching_forms_batches_under_shared_load(benchmark,
                                                  fitness_recognizer,
                                                  gesture_recognizer):
    """Fitness (push mode: frames queue at the pose stage) plus gesture,
    sharing one single-worker pose service. With batching on, queued
    requests coalesce and the dispatch-size histogram shows real batches."""
    results = {}

    def run():
        f0, g0, _ = run_shared(fitness_recognizer, gesture_recognizer,
                               fps=20.0, fitness_mode="push")
        f1, g1, home = run_shared(fitness_recognizer, gesture_recognizer,
                                  fps=20.0, fitness_mode="push",
                                  perf=BATCHING_ONLY)
        results["off"] = (f0, g0)
        results["on"] = (f1, g1)
        results["stats"] = home.perf_stats()["batching"]
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    stats = results["stats"]
    sizes = {int(k): v for k, v in stats["size_counts"].items()}
    print()
    print(format_table(
        ["Batching", "fitness FPS", "gesture FPS"],
        [["off", *results["off"]], ["on", *results["on"]]],
        title="Shared pose service, fitness in push mode",
        float_format="{:.2f}",
    ))
    print(f"  dispatch sizes: {format_histogram(sizes)}"
          f"  (mean {weighted_mean(sizes):.2f})")
    benchmark.extra_info["avg_batch_size"] = round(weighted_mean(sizes), 2)
    benchmark.extra_info["fitness_fps_on"] = round(results["on"][0], 2)

    if FAST:
        return  # smoke mode: shape assertions need the full window
    # real batches formed: the queued pipeline amortizes pose compute
    assert max(sizes) >= 2
    assert sizes.get(2, 0) > 10
    # and the queued pipeline gets faster for it
    assert results["on"][0] > results["off"][0] * 1.1


def test_all_features_off_is_bit_for_bit_the_seed(benchmark,
                                                  fitness_recognizer):
    """enable_fast_path(all off) must be indistinguishable from never
    calling it: identical frame counts and identical latency floats."""
    results = {}

    def run():
        for label, perf in (("seed", None), ("gated", ALL_OFF)):
            fps, metrics, _ = run_fitness(fitness_recognizer, "videopipe",
                                          fps=20.0, perf=perf)
            results[label] = (
                fps,
                metrics.counter("frames_completed"),
                tuple(metrics.total_latencies),
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"  seed : fps={results['seed'][0]:.4f}"
          f" frames={results['seed'][1]}")
    print(f"  gated: fps={results['gated'][0]:.4f}"
          f" frames={results['gated'][1]}")
    # exact float equality, not approx: the gate must not perturb a single
    # RNG draw or event ordering
    assert results["seed"] == results["gated"]
