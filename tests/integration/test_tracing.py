"""Integration: per-frame distributed tracing on the fitness pipeline.

The three promises ``docs/TRACING.md`` makes, checked end to end:

1. **No observer effect** — a traced run is bit-for-bit identical to an
   untraced one (tracing reads the simulation; it never schedules events
   or inflates messages).
2. **Faithful decomposition** — every completed frame decomposes exactly:
   the critical-path categories partition the end-to-end latency, and the
   trace-derived stage means agree with ``MetricsCollector`` (the issue's
   acceptance bar is 1%; they are equal to float precision).
3. **Loadable artifact** — the Chrome-trace export is valid JSON with the
   event phases Perfetto expects.
"""

import hashlib
import json

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.core import VideoPipe
from repro.runtime.settlement import REASONS
from repro.trace import (
    CAT_COMPUTE,
    CAT_QUEUE,
    CAT_SERIALIZE,
    CAT_WIRE,
    Span,
    critical_path,
    write_chrome_trace,
)
from scenarios import EXAMPLE_SCENARIOS

DURATION = 8.0
RUN_UNTIL = 9.0

#: sha256 of every field of every span (ids, parent, name, category, start,
#: end, device, actor, attrs) of each traced run below, and of the canary
#: scenario's lineage record. A change to how spans are produced must leave
#: them as they are: same spans, same ids minted in the same order.
SPAN_DIGESTS = {
    "videopipe":
        "80f0a1b1b61c06d2feedd9c7585b68ee66362908351970c535875ea94fbd8123",
    "baseline":
        "c63b5529b16a1fa41369284eb84c20408267ac0556b2a52a1a23f17feed098a0",
    "chaos_fitness":
        "e71e6a1bff8a83322a89f08030caa8d742d85d69cb4b80cf2b592447af03eb31",
}
LINEAGE_DIGEST = (
    "c208ff5a8014a33ccef16773899782ad1271872fcfd2e79c43a5b726167c30e6")
SCENARIO_SEED = 3


def run(recognizer, trace=False, architecture="videopipe", seed=11,
        monitor=False):
    home = VideoPipe.paper_testbed(seed=seed)
    tracer = home.enable_tracing() if trace else None
    if monitor:
        home.enable_monitoring()
    baseline = architecture == "baseline"
    services = install_fitness_services(home, recognizer=recognizer,
                                        baseline_layout=baseline)
    app = FitnessApp(home, services, architecture=architecture)
    pipeline = app.deploy(fitness_pipeline_config(fps=10.0,
                                                  duration_s=DURATION))
    home.run(until=RUN_UNTIL)
    return home, pipeline, tracer


def span_digest(spans):
    digest = hashlib.sha256()
    for s in spans:
        digest.update(repr((
            s.trace_id, s.span_id, s.parent_id, s.name, s.category,
            s.start, s.end, s.device, s.actor, sorted(s.attrs.items()),
        )).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint(pipeline):
    metrics = pipeline.metrics
    return (
        metrics.counter("frames_completed"),
        metrics.counter("frames_entered"),
        tuple(round(v, 12) for v in metrics.total_latencies),
    )


class TestNoObserverEffect:
    @pytest.mark.parametrize("architecture", ["videopipe", "baseline"])
    def test_traced_run_is_bit_for_bit_identical(self, fitness_recognizer,
                                                 architecture):
        _, plain, _ = run(fitness_recognizer, trace=False,
                          architecture=architecture)
        _, traced, tracer = run(fitness_recognizer, trace=True,
                                architecture=architecture)
        assert fingerprint(traced) == fingerprint(plain)
        assert tracer.span_count > 0

    def test_two_traced_runs_are_deterministic(self, fitness_recognizer):
        _, p1, t1 = run(fitness_recognizer, trace=True)
        _, p2, t2 = run(fitness_recognizer, trace=True)
        assert fingerprint(p1) == fingerprint(p2)
        assert t1.span_count == t2.span_count
        assert [(s.name, s.start, s.end) for s in t1.spans] == \
            [(s.name, s.start, s.end) for s in t2.spans]

    @pytest.mark.parametrize("architecture", ["videopipe", "baseline"])
    def test_fitness_spans_match_their_digest(self, fitness_recognizer,
                                              architecture):
        _, _, tracer = run(fitness_recognizer, trace=True,
                           architecture=architecture)
        names = {s.name for s in tracer.spans}
        if architecture == "baseline":
            # a remote service call: serialized, shipped, served
            assert {"rpc.serialize", "rpc.transfer"} <= names
        assert span_digest(tracer.spans) == SPAN_DIGESTS[architecture]

    def test_chaos_spans_match_their_digest(self):
        home, run_fn = EXAMPLE_SCENARIOS["chaos_fitness.py"](SCENARIO_SEED)
        tracer = home.enable_tracing()
        run_fn()
        (pipeline,) = home.pipelines
        assert pipeline.metrics.counter("frames_dropped.source_busy") > 0
        settled = {s.attrs.get("reason") for s in tracer.spans
                   if s.name == "frame" and s.attrs["outcome"] == "dropped"}
        assert settled & set(REASONS)
        assert span_digest(tracer.spans) == SPAN_DIGESTS["chaos_fitness"]

    def test_canary_lineage_matches_its_digest(self):
        home, run_fn = EXAMPLE_SCENARIOS["canary_upgrade.py"](SCENARIO_SEED)
        run_fn()
        record = json.dumps(home.liveops.lineage.as_dict(), sort_keys=True)
        assert hashlib.sha256(record.encode()).hexdigest() == LINEAGE_DIGEST


class TestDecomposition:
    def test_every_completed_frame_decomposes_exactly(self,
                                                      fitness_recognizer):
        _, pipeline, tracer = run(fitness_recognizer, trace=True)
        completed = pipeline.metrics.counter("frames_completed")
        report = critical_path(tracer, pipeline=pipeline.name)
        assert completed > 30
        assert report.frame_count == completed
        assert tracer.open_frame_count == 0
        for frame in report.frames:
            assert sum(frame.by_category.values()) == \
                pytest.approx(frame.total_s, rel=1e-9)

    def test_stage_means_match_collector_within_one_percent(
            self, fitness_recognizer):
        _, pipeline, tracer = run(fitness_recognizer, trace=True)
        report = critical_path(tracer, pipeline=pipeline.name)
        collector_means = pipeline.metrics.stage_means_ms()
        trace_means = report.stage_means_ms()
        assert set(trace_means) == set(collector_means)
        for stage, expected in collector_means.items():
            assert trace_means[stage] == pytest.approx(expected, rel=0.01), \
                stage
        # the root spans agree with the collector's end-to-end latency too
        latencies = pipeline.metrics.total_latencies
        expected_total = sum(latencies) / len(latencies) * 1e3
        traced_total = sum(f.total_s for f in report.frames) \
            / report.frame_count * 1e3
        assert traced_total == pytest.approx(expected_total, rel=1e-9)

    def test_colocated_path_is_queue_and_compute(self, fitness_recognizer):
        _, pipeline, tracer = run(fitness_recognizer, trace=True,
                                  architecture="videopipe")
        means = critical_path(tracer, pipeline=pipeline.name) \
            .category_means_ms()
        assert means.get(CAT_COMPUTE, 0.0) > 0.0
        assert means.get(CAT_QUEUE, 0.0) > 0.0

    def test_baseline_path_crosses_the_wire(self, fitness_recognizer):
        """Fig. 5's architecture pays serialize + wire on every service
        call; the decomposition must surface those categories."""
        _, pipeline, tracer = run(fitness_recognizer, trace=True,
                                  architecture="baseline")
        means = critical_path(tracer, pipeline=pipeline.name) \
            .category_means_ms()
        assert means.get(CAT_WIRE, 0.0) > 0.0
        assert means.get(CAT_SERIALIZE, 0.0) > 0.0


class TestArtifact:
    def test_export_loads_as_chrome_trace_json(self, fitness_recognizer,
                                               tmp_path):
        _, _, tracer = run(fitness_recognizer, trace=True)
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        doc = json.loads(open(path, encoding="utf-8").read())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        frames = [e for e in events if e["name"] == "frame"]
        assert frames and all(e["ph"] == "X" for e in frames)
        # every event sits in a named lane
        pids = {e["pid"] for e in events if e["name"] == "process_name"}
        assert {e["pid"] for e in events} <= pids


class TestWiring:
    def test_monitor_reports_span_accounting(self, fitness_recognizer):
        home, pipeline, tracer = run(fitness_recognizer, trace=True,
                                     monitor=True)
        monitor = home.monitor
        assert monitor.latest("tracing", "spans") == float(tracer.span_count)
        assert monitor.latest("tracing", "open_frames") == 0.0
        assert monitor.latest("tracing", "frames_finished") == \
            float(pipeline.metrics.counter("frames_completed"))

    def test_a_run_that_never_reads_spans_builds_none(self, fitness_recognizer,
                                                      monkeypatch):
        """A span is a row until something reads ``spans``: a monitored
        traced run (its snapshot reads ``span_count``) builds no ``Span``."""
        built = []
        init = Span.__init__

        def counting(span, *args, **kwargs):
            built.append(span)
            init(span, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        home, _, tracer = run(fitness_recognizer, trace=True, monitor=True)
        assert tracer.span_count > 0 and tracer.frames_finished > 0
        assert built == []
        assert len(tracer.spans) == len(built) == tracer.span_count

    def test_enable_tracing_is_idempotent(self, fitness_recognizer):
        home = VideoPipe.paper_testbed(seed=11)
        first = home.enable_tracing()
        assert home.enable_tracing() is first
        assert home.tracer is first
