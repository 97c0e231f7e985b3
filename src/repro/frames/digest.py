"""Cheap content digests for frames and service payloads.

Static scenes dominate real camera feeds: consecutive frames are often
byte-identical in *content* even though each capture gets a fresh frame id
and timestamp. A content digest makes that redundancy actionable — the
frame store uses it to collapse byte-identical frames into one stored
object (dedup), and the service layer uses it to key a result cache so a
repeated frame skips inference entirely.

A digest deliberately covers only what inference sees: geometry, pixels,
the annotated ground-truth pose, and metadata. Capture bookkeeping
(``frame_id``, ``capture_time``) is excluded — two frames of the same
scene hash equal no matter when they were taken.

:func:`content_digest` returns ``None`` for objects it cannot hash
deterministically; callers treat those as unique (never deduped, never
cached).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from ..motion.skeleton import Pose
from .codec import EncodedFrame
from .frame import FrameRef, VideoFrame

#: blake2b digest width; 16 bytes is collision-safe for any plausible
#: number of in-flight frames and keeps keys short.
DIGEST_BYTES = 16

#: Recently hashed pixel planes, keyed by array identity with a strong
#: reference held so the id cannot be recycled while cached. Static scenes
#: freeze one pixels array and stamp it into every capture, so without this
#: the dedup path re-hashes the identical plane once per frame — the
#: dominant cost of ``content_digest``. Bounded small: entries pin arrays.
_PLANE_CACHE_LIMIT = 8
_plane_cache: "OrderedDict[int, tuple[np.ndarray, str]]" = OrderedDict()


def _plane_digest(arr: np.ndarray) -> str:
    """Digest of one pixel plane, memoized by array identity."""
    key = id(arr)
    entry = _plane_cache.get(key)
    if entry is not None and entry[0] is arr:
        _plane_cache.move_to_end(key)
        return entry[1]
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    _feed_array(hasher, arr)
    digest = hasher.hexdigest()
    _plane_cache[key] = (arr, digest)
    while len(_plane_cache) > _PLANE_CACHE_LIMIT:
        _plane_cache.popitem(last=False)
    return digest

#: Optional resolver mapping a FrameRef leaf to the digest of the object it
#: points at (the frame store provides this); without one, payloads
#: containing refs are undigestable.
RefResolver = Callable[[FrameRef], "str | None"]


#: The head bytes (``str`` of the dtype, then of the shape) of each plain
#: array layout fed so far: numpy's ``dtype.__str__`` runs in Python. A
#: structured dtype is not cached (two equal ones can print differently).
_HEAD_CACHE_LIMIT = 256
_heads: dict[tuple, bytes] = {}


def _feed_array(hasher, arr: np.ndarray) -> None:
    key = (arr.dtype, arr.shape)
    head = _heads.get(key)
    if head is None:
        head = str(arr.dtype).encode() + str(arr.shape).encode()
        if arr.dtype.names is None and len(_heads) < _HEAD_CACHE_LIMIT:
            _heads[key] = head
    hasher.update(head)
    hasher.update(np.ascontiguousarray(arr).tobytes())


def _feed(hasher, obj: Any, resolve_ref: RefResolver | None) -> bool:
    """Feed *obj* into *hasher*; False means the object is undigestable.

    The plain types payloads are made of are dispatched on their exact
    type (as ``net/wire.py`` sizes them); subclasses, numpy and frame types
    take the ``isinstance`` cascade, which feeds the same bytes for all."""
    kind = type(obj)
    if kind is str:
        hasher.update(b"\x00s" + obj.encode())
        return True
    if kind is int or kind is float:
        hasher.update(b"\x00n" + repr(obj).encode())
        return True
    if obj is None:
        hasher.update(b"\x00N")
        return True
    if kind is not dict and kind is not list and kind is not tuple:
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
            _feed_array(hasher, obj)
            return True
        if isinstance(obj, Pose):
            hasher.update(b"\x00p")
            _feed_array(hasher, np.asarray(obj.keypoints))
            _feed_array(hasher, np.asarray(obj.visibility))
            return True
        if isinstance(obj, VideoFrame):
            digest = _frame_digest(obj, resolve_ref)
            if digest is None:
                return False
            hasher.update(b"\x00F" + digest.encode())
            return True
        if isinstance(obj, EncodedFrame):
            # the quantized carried frame *is* the wire content; quality
            # matters because different qualities decode to different pixels
            hasher.update(b"\x00E" + str(obj.quality).encode())
            return _feed(hasher, obj.frame, resolve_ref)
        if isinstance(obj, FrameRef):
            if resolve_ref is None:
                return False
            digest = resolve_ref(obj)
            if digest is None:
                return False
            hasher.update(b"\x00r" + digest.encode())
            return True
        if not isinstance(obj, (dict, list, tuple)):
            return False  # arbitrary object: no stable byte representation
    if isinstance(obj, dict):
        hasher.update(b"\x00d")
        try:
            items = sorted(obj.items())
        except TypeError:
            return False
        for key, value in items:
            if not _feed(hasher, key, resolve_ref):
                return False
            if not _feed(hasher, value, resolve_ref):
                return False
        return True
    hasher.update(b"\x00l" if isinstance(obj, list) else b"\x00t")
    for item in obj:
        if not _feed(hasher, item, resolve_ref):
            return False
    return True


def _frame_digest(
    frame: VideoFrame, resolve_ref: RefResolver | None
) -> str | None:
    """Digest of one frame's content, memoized on the frame object.

    The cache pairs the digest with the identity of the pixels array it was
    computed over: replacing ``frame.pixels`` invalidates automatically.
    """
    pixels_key = id(frame.pixels) if frame.pixels is not None else None
    cached = frame._digest_cache
    if cached is not None and cached[1] == pixels_key:
        return cached[0]
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    hasher.update(f"{frame.width}x{frame.height}x{frame.channels}".encode())
    if frame.pixels is not None:
        hasher.update(b"\x00a" + _plane_digest(frame.pixels).encode())
    else:
        hasher.update(b"-")
    if frame.truth is not None and not _feed(hasher, frame.truth, resolve_ref):
        return None
    if not _feed(hasher, frame.metadata, resolve_ref):
        return None
    digest = hasher.hexdigest()
    frame._digest_cache = (digest, pixels_key)
    return digest


def content_digest(
    obj: Any, resolve_ref: RefResolver | None = None
) -> str | None:
    """Hex digest of *obj*'s content, or ``None`` if undigestable.

    Byte-identical content (pixels, poses, arrays, nested containers)
    digests equal; ``frame_id`` and ``capture_time`` are excluded so
    repeated captures of a static scene collide on purpose.
    """
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    if _feed(hasher, obj, resolve_ref):
        return hasher.hexdigest()
    return None
