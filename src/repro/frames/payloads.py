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

Each shipping/landing operation reports the codec CPU cost so callers can
charge the device.
"""

from __future__ import annotations

from typing import Any, Callable

from .arena import MIGRATED, RELEASED
from .codec import EncodedFrame, decode_frame, encode_frame
from .frame import FrameRef, VideoFrame
from .framestore import FrameStore

#: Default JPEG quality for inter-device frame shipping.
WIRE_QUALITY = 80


def map_leaves(payload: Any, fn: Callable[[Any], Any]) -> Any:
    """Rebuild *payload* with every non-container leaf passed through *fn*.

    Containers (dict/list/tuple) are walked recursively; everything else is
    a leaf. Dicts keep their keys.
    """
    if isinstance(payload, dict):
        return {key: map_leaves(value, fn) for key, value in payload.items()}
    if isinstance(payload, list):
        return [map_leaves(item, fn) for item in payload]
    if isinstance(payload, tuple):
        return tuple(map_leaves(item, fn) for item in payload)
    return fn(payload)


def iter_leaves(payload: Any):
    """Yield every non-container leaf of *payload* without rebuilding it.

    The read-only companion to :func:`map_leaves`: an explicit-stack walk
    that allocates nothing per node, so scans (``frame_refs_in``,
    ``contains_type``) stop costing a full tree copy per hop.
    """
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        else:
            yield node


def contains_type(payload: Any, leaf_type: type) -> bool:
    """True when any leaf is an instance of *leaf_type* (early exit — the
    cheap pre-scan that lets boundary ops skip the rebuild entirely)."""
    for leaf in iter_leaves(payload):
        if isinstance(leaf, leaf_type):
            return True
    return False


def collect_leaves(payload: Any, predicate: Callable[[Any], bool]) -> list[Any]:
    """All leaves for which *predicate* holds, in traversal order."""
    if isinstance(payload, dict):
        found: list[Any] = []
        stack: list[Any] = list(reversed(list(payload.values())))
    elif isinstance(payload, (list, tuple)):
        found = []
        stack = list(reversed(payload))
    elif predicate(payload):
        return [payload]
    else:
        return []
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(reversed(list(node.values())))
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

    Frame-free payloads are returned as-is (identity, no rebuild)."""
    if not contains_type(payload, FrameRef):
        return payload

    def resolve(leaf: Any) -> Any:
        if isinstance(leaf, FrameRef):
            return store.get(leaf)
        return leaf

    return map_leaves(payload, resolve)


def encode_refs_for_wire(
    payload: Any, store: FrameStore, quality: int = WIRE_QUALITY,
    release: bool = True,
) -> tuple[Any, float, int]:
    """Ship: materialize and encode every ref.

    ``release=True`` (module→module sends) drops the local hold — ownership
    moves with the message. ``release=False`` (remote *service* calls)
    keeps the caller's hold — service calls only borrow.

    Returns ``(wire_payload, total_encode_cost_s, frames_shipped)``. Refs to
    non-frame objects are shipped as-is (they are plain values). Frame-free
    payloads short-circuit: the payload is returned unchanged at zero cost.
    """
    if not contains_type(payload, FrameRef):
        return payload, 0.0, 0
    total_cost = 0.0
    shipped = 0

    def ship(leaf: Any) -> Any:
        nonlocal total_cost, shipped
        if isinstance(leaf, FrameRef):
            obj = store.get(leaf)
            if release:
                # ownership moves with the message: the frame is migrating
                # off-device, and any handle left behind must say so
                store.release(leaf, reason=MIGRATED)
            if isinstance(obj, VideoFrame):
                encoded = encode_frame(obj, quality=quality)
                total_cost += encoded.encode_cost_s
                shipped += 1
                return encoded
            return obj
        return leaf

    return map_leaves(payload, ship), total_cost, shipped


def decode_frames_from_wire(
    payload: Any, store: FrameStore
) -> tuple[Any, float, int]:
    """Land: decode arriving frames into the local store, yielding new refs.

    Returns ``(local_payload, total_decode_cost_s, frames_landed)``.
    Payloads with no encoded frames (every intra-device hop) short-circuit
    to identity at zero cost.
    """
    if not contains_type(payload, EncodedFrame):
        return payload, 0.0, 0
    total_cost = 0.0
    landed = 0

    def land(leaf: Any) -> Any:
        nonlocal total_cost, landed
        if isinstance(leaf, EncodedFrame):
            total_cost += leaf.decode_cost_s
            landed += 1
            return store.put(decode_frame(leaf))
        return leaf

    return map_leaves(payload, land), total_cost, landed


def decode_frames_inline(payload: Any) -> tuple[Any, float]:
    """Land without a store: decode arriving frames to bare
    :class:`VideoFrame` objects (used by remote service calls, where the
    frame is consumed immediately and never re-referenced)."""
    if not contains_type(payload, EncodedFrame):
        return payload, 0.0
    total_cost = 0.0

    def land(leaf: Any) -> Any:
        nonlocal total_cost
        if isinstance(leaf, EncodedFrame):
            total_cost += leaf.decode_cost_s
            return decode_frame(leaf)
        return leaf

    return map_leaves(payload, land), total_cost


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
