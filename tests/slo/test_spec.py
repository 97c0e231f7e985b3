"""Unit tests for SLO declarations, quantiles, and attainment scoring."""

import pytest

from repro.errors import ConfigError
from repro.slo import SLO, AdmissionDecision, SLOConfig, attainment, quantile
from repro.slo.detector import OVERLOAD_RATIO, QUEUE_OVERLOAD, QUEUE_STRAIN
from repro.slo.spec import ADMITTED, REJECTED


class TestSLO:
    def test_defaults_and_as_dict(self):
        slo = SLO()
        assert slo.p99_latency_s == 0.25
        assert slo.min_fps == 1.0
        assert slo.as_dict() == {
            "p99_latency_s": 0.25, "min_fps": 1.0, "window_s": 2.0,
        }

    @pytest.mark.parametrize("kwargs", [
        {"p99_latency_s": 0.0},
        {"p99_latency_s": -1.0},
        {"min_fps": 0.0},
        {"window_s": -0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SLO(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SLO().min_fps = 5.0


class TestSLOConfig:
    @pytest.mark.parametrize("kwargs", [
        {"check_interval_s": 0.0},
        {"hysteresis_s": -0.1},
        {"recovery_hold_s": -1.0},
        # Explicit id: the case keeps its id now that the cases before it,
        # which checked fields that are now constants, are gone.
        pytest.param({"admission_threshold": 0.0}, id="kwargs14"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SLOConfig(**kwargs)

    def test_defaults_are_self_consistent(self):
        assert 0 <= QUEUE_STRAIN <= QUEUE_OVERLOAD
        assert OVERLOAD_RATIO >= 1.0


class TestQuantile:
    def test_empty_is_zero(self):
        assert quantile([], 0.99) == 0.0

    def test_single_value(self):
        assert quantile([0.3], 0.5) == 0.3
        assert quantile([0.3], 0.99) == 0.3

    def test_nearest_rank_ceiling(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert quantile(values, 0.5) == 0.2   # ceil(0.5*4) = rank 2
        assert quantile(values, 0.75) == 0.3
        assert quantile(values, 0.99) == 0.4
        assert quantile(values, 0.0) == 0.1   # rank floored at 1

    def test_unsorted_input(self):
        assert quantile([0.4, 0.1, 0.3, 0.2], 0.99) == 0.4

    def test_q_out_of_range(self):
        with pytest.raises(ConfigError):
            quantile([0.1], 1.5)


class TestAttainment:
    SLO_T = SLO(p99_latency_s=0.2, min_fps=2.0, window_s=2.0)

    @staticmethod
    def bucket_events(bucket_start, count, latency):
        step = 1.0 / (count + 1)
        return [(bucket_start + step * (i + 1), latency)
                for i in range(count)]

    def test_empty_range_is_perfect(self):
        assert attainment(self.SLO_T, [], start=5.0, end=5.0) == 1.0
        assert attainment(self.SLO_T, [], start=5.0, end=5.5) == 1.0

    def test_empty_bucket_fails(self):
        # one whole bucket with no completions: a stalled pipeline is not
        # meeting anything
        assert attainment(self.SLO_T, [], start=0.0, end=1.0) == 0.0

    def test_both_targets_must_hold(self):
        good = self.bucket_events(0.0, 4, 0.1)
        slow = self.bucket_events(1.0, 4, 0.5)       # fps fine, tail blown
        starved = self.bucket_events(2.0, 1, 0.1)    # fast but under min_fps
        events = good + slow + starved
        assert attainment(self.SLO_T, events, start=0.0, end=3.0) == (
            pytest.approx(1 / 3)
        )

    def test_only_whole_buckets_count(self):
        events = self.bucket_events(0.0, 4, 0.1)
        # [0, 1.7) holds one whole bucket; the partial 0.7 s tail is ignored
        assert attainment(self.SLO_T, events, start=0.0, end=1.7) == 1.0

    def test_events_outside_range_are_ignored(self):
        events = self.bucket_events(10.0, 50, 0.01)
        assert attainment(self.SLO_T, events, start=0.0, end=1.0) == 0.0

    def test_bucket_s_validation(self):
        with pytest.raises(ConfigError):
            attainment(self.SLO_T, [], start=0.0, end=1.0, bucket_s=0.0)

    def test_boundary_latency_complies(self):
        events = self.bucket_events(0.0, 4, 0.2)  # exactly at target
        assert attainment(self.SLO_T, events, start=0.0, end=1.0) == 1.0


class TestAdmissionDecision:
    def test_admitted_property_and_as_dict(self):
        decision = AdmissionDecision(
            at=1.0, pipeline="p", action=ADMITTED, reason="fits",
            worst_device="desktop", worst_utilization=0.4, threshold=0.8,
            predicted={"desktop": 0.4},
        )
        assert decision.admitted
        payload = decision.as_dict()
        assert payload["action"] == ADMITTED
        assert payload["predicted"] == {"desktop": 0.4}

    def test_rejected_is_not_admitted(self):
        decision = AdmissionDecision(
            at=1.0, pipeline="p", action=REJECTED, reason="over",
            worst_device="desktop", worst_utilization=0.9, threshold=0.8,
        )
        assert not decision.admitted
