"""Content-addressed frame store: dedup, retention, and capacity pressure."""

import numpy as np
import pytest

from repro.errors import FrameStoreError
from repro.frames import FrameStore, VideoFrame


def make_frame(frame_id=1, t=0.0, fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=t,
                      width=32, height=24, pixels=pixels)


class TestDedup:
    def test_identical_frames_share_one_slot(self):
        store = FrameStore("phone", dedup=True)
        first = store.put(make_frame(frame_id=1, t=0.0))
        second = store.put(make_frame(frame_id=2, t=0.5))
        assert second.ref_id == first.ref_id
        assert len(store) == 1
        assert store.refcount(first) == 2
        assert store.dedup_hits == 1
        assert store.dedup_bytes_saved == make_frame().raw_size
        assert store.dedup_ratio() == pytest.approx(0.5)

    def test_different_content_gets_own_slot(self):
        store = FrameStore("phone", dedup=True)
        a = store.put(make_frame(fill=7))
        b = store.put(make_frame(fill=8))
        assert a.ref_id != b.ref_id
        assert store.dedup_hits == 0

    def test_dedup_off_by_default(self):
        store = FrameStore("phone")
        a = store.put(make_frame())
        b = store.put(make_frame())
        assert a.ref_id != b.ref_id
        assert store.dedup_hits == store.dedup_misses == 0

    def test_non_frames_never_dedup(self):
        store = FrameStore("phone", dedup=True)
        a = store.put({"x": 1})
        b = store.put({"x": 1})
        assert a.ref_id != b.ref_id

    def test_released_frame_is_retained_and_revived(self):
        store = FrameStore("phone", dedup=True)
        ref = store.put(make_frame())
        store.release(ref)
        assert store.retained_count == 1
        assert not store.contains(ref)  # retained = invisible to holders
        with pytest.raises(FrameStoreError):
            store.get(ref)
        revived = store.put(make_frame(frame_id=2))
        assert revived.ref_id == ref.ref_id  # same slot came back
        assert store.refcount(revived) == 1
        assert store.retained_count == 0

    def test_retain_limit_reclaims_oldest(self):
        store = FrameStore("phone", dedup=True, retain_limit=2)
        refs = [store.put(make_frame(fill=i)) for i in range(3)]
        for ref in refs:
            store.release(ref)
        assert store.retained_count == 2
        assert store.retained_evictions == 1
        # the oldest (fill=0) was reclaimed: re-putting it is a miss
        again = store.put(make_frame(fill=0))
        assert again.ref_id != refs[0].ref_id

    def test_retain_limit_zero_reclaims_immediately(self):
        store = FrameStore("phone", dedup=True, retain_limit=0)
        ref = store.put(make_frame())
        store.release(ref)
        assert len(store) == 0

    def test_digest_of_memoizes(self):
        store = FrameStore("phone")
        ref = store.put(make_frame())
        digest = store.digest_of(ref)
        assert digest is not None
        assert store.digest_of(ref) == digest
        assert store.digest_of(store.put(object())) is None


class TestCapacityPressure:
    def test_retained_evicted_before_failing(self):
        store = FrameStore("phone", dedup=True, capacity=2)
        parked = store.put(make_frame(fill=1))
        store.release(store.put(make_frame(fill=2)))  # now retained
        assert store.retained_count == 1
        extra = store.put(make_frame(fill=3))  # forces retained out
        assert store.contains(parked) and store.contains(extra)
        assert store.retained_count == 0
        assert store.retained_evictions == 1

    def test_leak_diagnostic_names_top_holders(self):
        store = FrameStore("phone", capacity=2)
        ref = store.put("hog")
        for _ in range(4):
            store.add_ref(ref)
        store.put("b")
        with pytest.raises(FrameStoreError, match=r"top holders.*str x5"):
            store.put("c")

    def test_invalid_retain_limit_rejected(self):
        with pytest.raises(FrameStoreError):
            FrameStore("phone", retain_limit=-1)
