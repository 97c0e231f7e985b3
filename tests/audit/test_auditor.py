"""Unit tests for the invariant auditor: registry, recording, and each
invariant family against small hand-built components."""

import pytest

from repro.audit import InvariantAuditor
from repro.audit.auditor import MAX_VIOLATIONS, live_auditors
from repro.frames.framestore import FrameStore
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def auditor(kernel):
    return InvariantAuditor(kernel)


class TestConfig:
    def test_defaults(self, auditor):
        assert MAX_VIOLATIONS == 1000
        assert auditor.source == "explicit"
        assert auditor.violations == [] and auditor.dropped_violations == 0

    def test_registry_tracks_live_auditors(self, kernel):
        auditor = InvariantAuditor(kernel)
        assert auditor in live_auditors()
        assert auditor.source == "explicit"


class TestRecording:
    def test_record_appends_violation_with_kernel_time(self, auditor):
        auditor.record("kernel-hygiene", "kernel", "something broke")
        assert auditor.violation_count == 1
        violation = auditor.violations[0]
        assert violation.at == 0.0
        assert "kernel-hygiene" in violation.describe()
        assert "something broke" in violation.describe()

    def test_cap_counts_dropped_violations(self, auditor):
        for n in range(MAX_VIOLATIONS + 3):
            auditor.record("kernel-hygiene", "kernel", f"v{n}")
        assert len(auditor.violations) == MAX_VIOLATIONS
        assert auditor.dropped_violations == 3
        assert auditor.violation_count == MAX_VIOLATIONS + 3
        assert "past the cap" in auditor.report()

    def test_clean_report(self, auditor):
        assert "clean" in auditor.report()


class TestKernelHygiene:
    def test_clean_run_records_nothing(self, kernel, auditor):
        auditor.attach_kernel(kernel)
        order = []
        kernel.schedule(0.2, order.append, "b")
        kernel.schedule(0.1, order.append, "a")
        kernel.run()
        assert order == ["a", "b"]
        assert auditor.violations == []

    def test_observation_does_not_perturb_sequencing(self, kernel, auditor):
        plain = Kernel()
        auditor.attach_kernel(kernel)
        for k in (kernel, plain):
            k.schedule(0.1, lambda: None)
            k.schedule(0.2, lambda: None)
        e1 = kernel.schedule(0.3, lambda: None)
        e2 = plain.schedule(0.3, lambda: None)
        assert e1.seq == e2.seq

    def test_event_scheduled_in_the_past_is_flagged(self, kernel, auditor):
        auditor.attach_kernel(kernel)

        class Stuck:
            time = -1.0
            priority = 1
            seq = 99

        auditor.on_schedule(5.0, Stuck())
        assert auditor.violations
        assert auditor.violations[0].invariant == "kernel-hygiene"
        assert "scheduled in the past" in auditor.violations[0].detail

    def test_corrupted_queue_is_flagged_before_the_kernel_aborts(
            self, kernel, auditor):
        from repro.errors import SimulationError

        auditor.attach_kernel(kernel)
        kernel.schedule(1.0, lambda: None)
        event = kernel.schedule(2.0, lambda: None)
        kernel.step()  # now == 1.0
        event.time = 0.5  # corrupt the heap entry behind the kernel's back
        with pytest.raises(SimulationError):
            kernel.run()
        assert any("backwards" in v.detail or "non-monotonic" in v.detail
                   for v in auditor.violations)


class TestFrameRefConservation:
    def test_balanced_holds_leave_no_live_refs(self, auditor):
        store = FrameStore("phone", capacity=8)
        auditor.watch_store(store)
        ref = store.put(b"frame")
        ref2 = store.add_ref(ref)
        store.release(ref)
        store.release(ref2)
        assert auditor.check_quiesce() == []

    def test_leaked_ref_is_attributed_at_quiesce(self, auditor):
        store = FrameStore("phone", capacity=8)
        auditor.watch_store(store)
        store.put(b"leaked")
        violations = auditor.check_quiesce()
        assert len(violations) == 1
        v = violations[0]
        assert v.invariant == "frame-ref-conservation"
        assert v.subject == "framestore/phone"
        assert "held since" in v.detail
        assert "1 hold(s) / 0 release(s)" in v.detail

    def test_negative_refcount_is_flagged(self, auditor):
        store = FrameStore("phone", capacity=8)
        auditor.watch_store(store)
        # simulate a component double-releasing behind the store's back
        auditor.on_ref_release(store, 1, -1)
        assert auditor.violations
        assert "negative" in auditor.violations[0].detail

    def test_watch_is_idempotent_and_mirrors_existing_refs(self, auditor):
        store = FrameStore("phone", capacity=8)
        ref = store.put(b"pre-existing")
        auditor.watch_store(store)
        auditor.watch_store(store)
        assert len(auditor._stores) == 1
        store.release(ref)
        assert auditor.check_quiesce() == []


class TestMetricsConservation:
    def test_balanced_lifecycle_is_clean(self, auditor):
        collector = MetricsCollector("p")
        auditor.watch_metrics(collector)
        collector.frame_entered(1, 0.0)
        collector.frame_entered(2, 0.1)
        collector.frame_completed(1, 0.5)
        collector.frame_dropped(2, 0.6)
        collector.frame_dropped(3, 0.7)  # pre-admission drop: tolerated
        assert auditor.check_quiesce() == []

    def test_counter_moving_without_notification_is_flagged(self, auditor):
        collector = MetricsCollector("p")
        auditor.watch_metrics(collector)
        collector.increment("frames_entered", 3)
        violations = auditor.check_now()
        assert violations
        assert "notified 0 admissions" in violations[0].detail

    def test_unsettled_frame_is_flagged_at_quiesce(self, auditor):
        collector = MetricsCollector("p")
        auditor.watch_metrics(collector)
        collector.frame_entered(1, 0.0)
        violations = auditor.check_quiesce()
        assert any("still marked" in v.detail for v in violations)

    def test_check_now_returns_only_new_violations(self, auditor):
        collector = MetricsCollector("p")
        auditor.watch_metrics(collector)
        collector.increment("frames_entered")
        first = auditor.check_now()
        second = auditor.check_now()
        assert len(first) == 1
        assert len(second) == 1
        assert auditor.checks_run == 2
