"""Arena handle conservation: the auditor's mirror of the frame plane.

Every auditor here is explicitly constructed, so the ``REPRO_AUDIT``
pytest gate ignores the intentional violations these tests provoke.
"""

import numpy as np
import pytest

from repro.audit import InvariantAuditor
from repro.errors import StaleHandleError
from repro.frames import EVICTED, FrameArena, FrameStore, VideoFrame
from repro.sim.kernel import Kernel


def make_frame(frame_id=1, fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=0.0,
                      width=32, height=24, pixels=pixels)


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def auditor(kernel):
    return InvariantAuditor(kernel)


class TestArenaConservation:
    def test_clean_lifecycle_stays_clean(self, auditor):
        arena = FrameArena("phone")
        arena.observer = auditor.watch_arena(arena)
        handle = arena.alloc(1024)
        arena.free(handle)
        assert auditor.check_now() == []
        assert auditor.check_quiesce() == []

    def test_stale_access_trips_the_auditor(self, auditor):
        arena = FrameArena("phone")
        arena.observer = auditor.watch_arena(arena)
        handle = arena.alloc(64)
        arena.free(handle, reason=EVICTED)
        with pytest.raises(StaleHandleError):
            arena.check(handle)
        assert auditor.violation_count == 1
        violation = auditor.violations[0]
        assert violation.invariant == "arena-stale-access"
        assert violation.subject == "arena/phone"
        assert "evicted" in violation.detail

    def test_skipped_alloc_notification_flags_mirror_divergence(self, auditor):
        arena = FrameArena("phone")
        arena.observer = auditor.watch_arena(arena)
        mirror, arena.observer = arena.observer, None
        arena.alloc(64)  # a buggy alloc path that skips its report
        arena.observer = mirror
        violations = auditor.check_now()
        assert any(v.invariant == "arena-conservation" for v in violations)

    def test_use_after_evict_through_the_store_is_attributed(self, auditor):
        store = FrameStore("phone", dedup=True, retain_limit=1)
        arena = FrameArena("phone")
        store.attach_arena(arena)
        store.observer = auditor.watch_store(store)
        arena.observer = auditor.watch_arena(arena)
        first = store.put(make_frame(fill=1))
        first_handle = store.handle_of(first)
        store.release(first)
        second = store.put(make_frame(fill=2))
        store.release(second)  # retention overflow evicts the first frame
        with pytest.raises(StaleHandleError) as exc:
            store.frame_by_handle(first_handle)
        assert exc.value.reason == EVICTED
        assert any(
            v.invariant == "arena-stale-access" for v in auditor.violations
        )

    def test_mid_run_watch_mirrors_existing_slots(self, auditor):
        arena = FrameArena("phone")
        keep = arena.alloc(64)
        arena.observer = auditor.watch_arena(arena)
        assert auditor.check_now() == []
        arena.free(keep)
        assert auditor.check_quiesce() == []

    def test_quiesce_flags_orphaned_slots(self, auditor):
        store = FrameStore("phone")
        arena = FrameArena("phone")
        store.attach_arena(arena)
        store.observer = auditor.watch_store(store)
        arena.observer = auditor.watch_arena(arena)
        ref = store.put(make_frame())
        # simulate a buggy delete that forgets the arena: the store entry
        # dies but the slot stays live
        handle = store._handles.pop(ref.ref_id)
        store._by_handle.pop(handle)
        store.release(ref)
        violations = auditor.check_quiesce()
        assert any(
            v.invariant == "arena-conservation" and "orphan" in v.detail
            for v in violations
        )

    def test_quiesce_allows_retained_dedup_targets(self, auditor):
        store = FrameStore("phone", dedup=True, retain_limit=4)
        arena = FrameArena("phone")
        store.attach_arena(arena)
        store.observer = auditor.watch_store(store)
        arena.observer = auditor.watch_arena(arena)
        ref = store.put(make_frame())
        store.release(ref)  # zero refcount, retained as a dedup target
        assert arena.live_count == 1  # the slot legitimately stays
        assert auditor.check_quiesce() == []
