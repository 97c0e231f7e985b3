"""``content_digest`` against a test-local copy of its reference feed.

The digest dispatches plain types on their exact type and caches each
array layout's head bytes; the reference below is the ``isinstance``
cascade that fed every value before, with the head built from ``str`` on
every array and no memo of any kind. A seeded fuzz compares the two
digests, byte for byte, over nested containers, numpy scalars and arrays
of several dtypes, shapes and byte orders, poses, frames with and without
pixels, encoded frames, frame refs with and without a resolver, bool
against int and ``str``/``int`` subclasses. ``REPRO_FUZZ_N`` sets the
number of payloads (default 300; CI's audit job runs 3000).
"""

from __future__ import annotations

import enum
import hashlib
import os
import random

import numpy as np
import pytest

from repro.frames import FrameRef, VideoFrame, content_digest
from repro.frames.codec import EncodedFrame
from repro.frames.digest import DIGEST_BYTES
from repro.motion.skeleton import NUM_KEYPOINTS, Pose

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


# -- the reference: every value through the isinstance cascade ----------------
def ref_feed_array(hasher, arr):
    hasher.update(str(arr.dtype).encode())
    hasher.update(str(arr.shape).encode())
    hasher.update(np.ascontiguousarray(arr).tobytes())


def ref_frame_digest(frame, resolve_ref):
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    hasher.update(f"{frame.width}x{frame.height}x{frame.channels}".encode())
    if frame.pixels is not None:
        plane = hashlib.blake2b(digest_size=DIGEST_BYTES)
        ref_feed_array(plane, frame.pixels)
        hasher.update(b"\x00a" + plane.hexdigest().encode())
    else:
        hasher.update(b"-")
    if frame.truth is not None and not ref_feed(hasher, frame.truth,
                                                resolve_ref):
        return None
    if not ref_feed(hasher, frame.metadata, resolve_ref):
        return None
    return hasher.hexdigest()


def ref_feed(hasher, obj, resolve_ref):
    if obj is None:
        hasher.update(b"\x00N")
        return True
    if isinstance(obj, bool):
        hasher.update(b"\x00b1" if obj else b"\x00b0")
        return True
    if isinstance(obj, (int, float, np.integer, np.floating)):
        hasher.update(b"\x00n" + repr(obj).encode())
        return True
    if isinstance(obj, str):
        hasher.update(b"\x00s" + obj.encode())
        return True
    if isinstance(obj, bytes):
        hasher.update(b"\x00y" + obj)
        return True
    if isinstance(obj, np.ndarray):
        hasher.update(b"\x00a")
        ref_feed_array(hasher, obj)
        return True
    if isinstance(obj, Pose):
        hasher.update(b"\x00p")
        ref_feed_array(hasher, np.asarray(obj.keypoints))
        ref_feed_array(hasher, np.asarray(obj.visibility))
        return True
    if isinstance(obj, VideoFrame):
        digest = ref_frame_digest(obj, resolve_ref)
        if digest is None:
            return False
        hasher.update(b"\x00F" + digest.encode())
        return True
    if isinstance(obj, EncodedFrame):
        hasher.update(b"\x00E" + str(obj.quality).encode())
        return ref_feed(hasher, obj.frame, resolve_ref)
    if isinstance(obj, FrameRef):
        if resolve_ref is None:
            return False
        digest = resolve_ref(obj)
        if digest is None:
            return False
        hasher.update(b"\x00r" + digest.encode())
        return True
    if isinstance(obj, dict):
        hasher.update(b"\x00d")
        try:
            items = sorted(obj.items())
        except TypeError:
            return False
        for key, value in items:
            if not ref_feed(hasher, key, resolve_ref):
                return False
            if not ref_feed(hasher, value, resolve_ref):
                return False
        return True
    if isinstance(obj, (list, tuple)):
        hasher.update(b"\x00l" if isinstance(obj, list) else b"\x00t")
        for item in obj:
            if not ref_feed(hasher, item, resolve_ref):
                return False
        return True
    return False


def reference_digest(obj, resolve_ref=None):
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    if ref_feed(hasher, obj, resolve_ref):
        return hasher.hexdigest()
    return None


# -- the payloads ---------------------------------------------------------------
class Tag(str):
    """A ``str`` subclass: same bytes as its plain value."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Opaque:
    """An arbitrary object: undigestable."""


DTYPES = ["uint8", "<i4", ">i4", "<f8", ">f8", "=f4", "bool", "<U3", "S2",
          "complex64", [("a", "<i4"), ("b", "u1")]]
SHAPES = [(), (0,), (3,), (2, 3), (1, 2, 2), (NUM_KEYPOINTS, 2)]


def resolver(ref):
    """A frame store's resolver: refs on the 'gone' device do not resolve."""
    return None if ref.device == "gone" else f"d{ref.ref_id}"


def array(rng):
    dtype = np.dtype(rng.choice(DTYPES))
    shape = rng.choice(SHAPES)
    raw = rng.randbytes(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if arr.ndim == 2 and rng.random() < 0.3:
        arr = arr.T  # not contiguous
    return arr


def frame(rng, depth):
    pixels = None
    if rng.random() < 0.5:
        pixels = np.full((4, 5, 3), rng.randrange(256), dtype=np.uint8)
    made = VideoFrame(
        frame_id=rng.randrange(100), source="cam",
        capture_time=rng.random(), width=5, height=4, pixels=pixels,
        truth=pose(rng) if rng.random() < 0.5 else None,
        metadata={"k": value(rng, depth + 1)} if rng.random() < 0.5 else {})
    return made


def pose(rng):
    return Pose(np.array([[rng.random(), rng.random()]
                          for _ in range(NUM_KEYPOINTS)]),
                np.array([rng.random() < 0.8 for _ in range(NUM_KEYPOINTS)]))


def value(rng, depth=0):
    leaves = [
        lambda: None, lambda: True, lambda: False,
        lambda: rng.randrange(-5, 5), lambda: 2 ** rng.randrange(70),
        lambda: rng.random(), lambda: float("nan"), lambda: -0.0,
        lambda: rng.choice(["", "a", "ünï", "1"]),
        lambda: Tag(rng.choice(["", "x"])), lambda: Level.HIGH,
        lambda: rng.randbytes(rng.randrange(4)),
        lambda: np.int64(rng.randrange(9)), lambda: np.float32(rng.random()),
        lambda: np.bool_(rng.random() < 0.5), lambda: np.uint8(7),
        lambda: array(rng), lambda: pose(rng),
        lambda: FrameRef(rng.choice(["cam", "gone"]), rng.randrange(5)),
        lambda: Opaque(),
    ]
    if depth < 3:
        leaves += [
            lambda: frame(rng, depth),
            lambda: EncodedFrame(frame(rng, depth), rng.choice([10, 80]),
                                 100, 0.0, 0.0),
            lambda: [value(rng, depth + 1) for _ in range(rng.randrange(4))],
            lambda: tuple(value(rng, depth + 1)
                          for _ in range(rng.randrange(4))),
            lambda: {rng.choice(["a", "b", "c"]): value(rng, depth + 1)
                     for _ in range(rng.randrange(4))},
            lambda: {rng.randrange(3): value(rng, depth + 1),
                     "mixed": 1},  # unsortable keys: undigestable
        ]
    return rng.choice(leaves)()


@pytest.mark.parametrize("seed", range(3))
def test_digests_equal_the_reference_feed(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(FUZZ_N):
        payload = value(rng)
        for resolve in (None, resolver):
            digest = content_digest(payload, resolve)
            assert digest == reference_digest(payload, resolve), payload
            seen.add(digest is None)
    assert seen == {True, False}  # both outcomes reached


def test_a_layout_seen_twice_feeds_the_same_head():
    first = np.arange(6, dtype=">i4").reshape(2, 3)
    again = np.arange(6, dtype="<i4").reshape(2, 3)
    for arr in (first, again, first, again):
        assert content_digest(arr) == reference_digest(arr)
    assert content_digest(first) != content_digest(again)


def test_bool_is_not_int_and_a_str_subclass_is_a_str():
    assert content_digest(True) != content_digest(1)
    assert content_digest(np.bool_(True)) == reference_digest(np.bool_(True))
    assert content_digest(Tag("x")) == content_digest("x")
    assert content_digest([Level.LOW]) == reference_digest([Level.LOW])
    assert content_digest([Level.LOW]) != content_digest([1])


def test_equal_structured_dtypes_that_print_apart_keep_their_heads():
    aligned = np.dtype([("a", "u1"), ("b", "<i4")], align=True)
    packed = np.dtype({"names": ["a", "b"], "formats": ["u1", "<i4"],
                       "offsets": [0, 4], "itemsize": 8})
    assert aligned == packed and str(aligned) != str(packed)
    for dtype in (aligned, packed, aligned):
        arr = np.zeros(2, dtype=dtype)
        assert content_digest(arr) == reference_digest(arr)
