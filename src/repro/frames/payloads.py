"""Payload transformations at device and service boundaries.

Module and service payloads are plain dicts/lists whose leaves may include
:class:`~repro.frames.frame.FrameRef` tokens. Three boundary operations
exist, matching the paper's minimal-copy design:

* **borrow** (:func:`resolve_refs`) — a co-located service resolves refs to
  the stored frames with zero copies;
* **ship** (:func:`encode_refs_for_wire`) — before a payload crosses devices,
  each ref is materialized and JPEG-encoded (the only place pixels are
  copied), and the local hold is released (ownership moves);
* **land** (:func:`decode_frames_from_wire`) — on arrival, encoded frames are
  decoded into the receiving device's store and replaced by fresh local refs.

Each is one copy-on-write pass (:func:`replace_leaves`) that copies only
the containers on a path to a replaced leaf, so untouched ones are shared —
safe because a sent payload is never changed (docs/PERF.md "One walk per
message"). Shipping and landing report the codec CPU cost to charge.
"""

from __future__ import annotations

from typing import Any, Callable

from .arena import MIGRATED, RELEASED
from .codec import EncodedFrame, decode_frame, encode_frame
from .frame import FrameRef, VideoFrame
from .framestore import FrameStore

#: Default JPEG quality for inter-device frame shipping.
WIRE_QUALITY = 80

#: The exact types of the plain leaves payloads are mostly made of. None is
#: a container or a frame leaf, so the walk skips them on their exact type
#: (as ``net/wire.py`` sizes them); subclasses take the ``isinstance`` tests.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def replace_leaves(
    payload: Any, leaf_type: type, fn: Callable[[Any], Any]
) -> Any:
    """*payload* with every *leaf_type* leaf replaced by ``fn(leaf)``.

    Containers (dict/list/tuple) are walked depth-first, in order. One none
    of whose leaves changed (``fn`` returned the leaf itself, or there was
    none) comes back as itself; one on the path to a changed leaf is copied
    once, as a plain dict, list or tuple. *leaf_type* is never one of the
    plain scalar types.
    """
    if isinstance(payload, (dict, list, tuple)):
        is_dict = isinstance(payload, dict)
        copy = None
        for key, value in payload.items() if is_dict else enumerate(payload):
            if type(value) in _PLAIN:
                continue
            if isinstance(value, leaf_type):
                new = fn(value)
            elif isinstance(value, (dict, list, tuple)):
                new = replace_leaves(value, leaf_type, fn)
            else:
                continue
            if new is not value:
                if copy is None:
                    copy = dict(payload) if is_dict else list(payload)
                copy[key] = new
        if copy is None:
            return payload
        return tuple(copy) if isinstance(payload, tuple) else copy
    if isinstance(payload, leaf_type):
        return fn(payload)
    return payload


def collect_leaves(payload: Any, predicate: Callable[[Any], bool]) -> list[Any]:
    """All leaves for which *predicate* holds, in traversal order."""
    found: list[Any] = []
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(reversed(node.values()))
        elif isinstance(node, (list, tuple)):
            stack.extend(reversed(node))
        elif predicate(node):
            found.append(node)
    return found


def frame_refs_in(payload: Any) -> list[FrameRef]:
    """Every :class:`FrameRef` appearing in the payload."""
    return collect_leaves(payload, lambda leaf: isinstance(leaf, FrameRef))


def frame_ids_in(payload: Any) -> list[int]:
    """Every distinct ``frame_id`` appearing in the payload, in traversal
    order.

    Frame identity travels as a ``"frame_id"`` key in payload dicts — at
    the top level for simple module messages, nested for batched or
    enveloped payloads (``{"batch": [{"frame_id": ...}, ...]}``).
    Settlement must account *every* frame a payload carried, so this walks
    containers the way :func:`release_refs` walks for refs.
    """
    ids: list[int] = []
    seen: set[int] = set()
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            frame_id = node.get("frame_id")
            if isinstance(frame_id, int) and frame_id not in seen:
                seen.add(frame_id)
                ids.append(frame_id)
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return ids


def resolve_refs(payload: Any, store: FrameStore) -> Any:
    """Borrow: replace refs with the stored objects (no copy, no release).

    A frame-free payload is returned as itself."""
    return replace_leaves(payload, FrameRef, store.get)


def encode_refs_for_wire(
    payload: Any, store: FrameStore, quality: int = WIRE_QUALITY,
    release: bool = True,
) -> tuple[Any, float, int]:
    """Ship: materialize and encode every ref.

    ``release=True`` (module→module sends) drops the local hold — ownership
    moves with the message. ``release=False`` (remote *service* calls)
    keeps the caller's hold — service calls only borrow.

    Returns ``(wire_payload, total_encode_cost_s, frames_shipped)``. Refs to
    non-frame objects are shipped as-is (they are plain values). A
    frame-free payload is returned as itself, at zero cost.
    """
    total_cost = 0.0
    shipped = 0

    def ship(ref: FrameRef) -> Any:
        nonlocal total_cost, shipped
        obj = store.get(ref)
        if release:
            # ownership moves with the message: the frame is migrating
            # off-device, and any handle left behind must say so
            store.release(ref, reason=MIGRATED)
        if isinstance(obj, VideoFrame):
            encoded = encode_frame(obj, quality=quality)
            total_cost += encoded.encode_cost_s
            shipped += 1
            return encoded
        return obj

    return replace_leaves(payload, FrameRef, ship), total_cost, shipped


def decode_frames_from_wire(
    payload: Any, store: FrameStore
) -> tuple[Any, float, int]:
    """Land: decode arriving frames into the local store, yielding new refs.

    Returns ``(local_payload, total_decode_cost_s, frames_landed)``. A
    payload with no encoded frame is returned as itself, at zero cost.
    """
    total_cost = 0.0
    landed = 0

    def land(encoded: EncodedFrame) -> FrameRef:
        nonlocal total_cost, landed
        total_cost += encoded.decode_cost_s
        landed += 1
        return store.put(decode_frame(encoded))

    return replace_leaves(payload, EncodedFrame, land), total_cost, landed


def decode_frames_inline(payload: Any) -> tuple[Any, float]:
    """Land without a store: decode arriving frames to bare
    :class:`VideoFrame` objects (used by remote service calls, where the
    frame is consumed immediately and never re-referenced)."""
    total_cost = 0.0

    def land(encoded: EncodedFrame) -> VideoFrame:
        nonlocal total_cost
        total_cost += encoded.decode_cost_s
        return decode_frame(encoded)

    return replace_leaves(payload, EncodedFrame, land), total_cost


def release_refs(
    payload: Any, store: FrameStore, reason: str = RELEASED
) -> int:
    """Release every ref in *payload* held in *store*; returns the count.

    *reason* labels the arena-slot retirement when the store is
    arena-backed: migration drains pass
    :data:`~repro.frames.arena.MIGRATED` so a stale handle kept across the
    move reports use-after-migrate, not double-release.
    """
    count = 0
    for ref in frame_refs_in(payload):
        if ref.device == store.device:
            store.release(ref, reason=reason)
            count += 1
    return count


def add_refs(payload: Any, store: FrameStore) -> int:
    """Take an extra hold on every local ref in *payload* (fan-out)."""
    count = 0
    for ref in frame_refs_in(payload):
        if ref.device == store.device:
            store.add_ref(ref)
            count += 1
    return count
