"""Unit and property tests for payload boundary transformations.

``REPRO_FUZZ_N`` scales the example budget of the one-walk reference test
like the other fuzz suites (default 300; CI's audit job runs 3000).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frames import FrameRef, FrameStore, SyntheticCamera, VideoFrame
from repro.frames.arena import MIGRATED, RELEASED
from repro.frames.codec import EncodedFrame, decode_frame, encode_frame
from repro.frames.payloads import (
    add_refs,
    collect_leaves,
    decode_frames_from_wire,
    decode_frames_inline,
    encode_refs_for_wire,
    frame_refs_in,
    release_refs,
    resolve_refs,
)
from repro.motion import Squat

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


def frame(frame_id=1):
    return SyntheticCamera("phone", Squat()).capture(frame_id, 0.0)


def map_leaves(payload, fn):
    """Rebuild *payload* with every non-container leaf passed through *fn*:
    the full-rebuild walk the one-walk boundary ops are checked against."""
    if isinstance(payload, dict):
        return {key: map_leaves(value, fn) for key, value in payload.items()}
    if isinstance(payload, list):
        return [map_leaves(item, fn) for item in payload]
    if isinstance(payload, tuple):
        return tuple(map_leaves(item, fn) for item in payload)
    return fn(payload)


class TestMapLeaves:
    def test_rebuilds_nested_containers(self):
        payload = {"a": [1, (2, {"b": 3})], "c": None}
        doubled = map_leaves(payload, lambda v: v * 2 if isinstance(v, int) else v)
        assert doubled == {"a": [2, (4, {"b": 6})], "c": None}

    def test_preserves_container_types(self):
        out = map_leaves({"t": (1, 2)}, lambda v: v)
        assert isinstance(out["t"], tuple)

    def test_collect_leaves_in_order(self):
        payload = {"a": 1, "b": [2, 3], "c": {"d": 4}}
        assert collect_leaves(payload, lambda v: isinstance(v, int)) == [1, 2, 3, 4]


class TestShipAndLand:
    def test_ship_encodes_and_moves_ownership(self):
        store = FrameStore("phone")
        ref = store.put(frame())
        payload = {"frame": ref, "meta": 7}
        wire, cost, shipped = encode_refs_for_wire(payload, store)
        assert shipped == 1
        assert cost > 0
        assert isinstance(wire["frame"], EncodedFrame)
        assert wire["meta"] == 7
        assert len(store) == 0  # hold released: ownership moved

    def test_ship_borrowing_keeps_hold(self):
        store = FrameStore("phone")
        ref = store.put(frame())
        _, _, shipped = encode_refs_for_wire({"frame": ref}, store, release=False)
        assert shipped == 1
        assert store.contains(ref)

    def test_non_frame_objects_ship_as_plain_values(self):
        store = FrameStore("phone")
        ref = store.put({"not": "a frame"})
        wire, cost, shipped = encode_refs_for_wire({"x": ref}, store)
        assert wire["x"] == {"not": "a frame"}
        assert shipped == 0
        assert cost == 0

    def test_land_restores_local_refs(self):
        phone = FrameStore("phone")
        desktop = FrameStore("desktop")
        ref = phone.put(frame(5))
        wire, _, _ = encode_refs_for_wire({"frame": ref}, phone)
        landed, cost, count = decode_frames_from_wire(wire, desktop)
        assert count == 1
        assert cost > 0
        new_ref = landed["frame"]
        assert new_ref.device == "desktop"
        assert desktop.get(new_ref).frame_id == 5

    def test_land_inline_yields_bare_frames(self):
        phone = FrameStore("phone")
        ref = phone.put(frame(9))
        wire, _, _ = encode_refs_for_wire({"frame": ref}, phone)
        landed, cost = decode_frames_inline(wire)
        assert isinstance(landed["frame"], VideoFrame)
        assert landed["frame"].frame_id == 9
        assert cost > 0

    def test_roundtrip_preserves_truth_annotation(self):
        phone = FrameStore("phone")
        desktop = FrameStore("desktop")
        original = frame()
        wire, _, _ = encode_refs_for_wire({"frame": phone.put(original)}, phone)
        landed, _, _ = decode_frames_from_wire(wire, desktop)
        arrived = desktop.get(landed["frame"])
        assert arrived.truth is not None
        assert arrived.metadata["activity"] == "squat"


class TestRefHelpers:
    def test_frame_refs_in_finds_nested(self):
        store = FrameStore("phone")
        refs = [store.put(frame(i)) for i in range(3)]
        payload = {"a": refs[0], "b": [refs[1], {"c": refs[2]}], "d": 1}
        assert frame_refs_in(payload) == refs

    def test_resolve_refs_borrows(self):
        store = FrameStore("phone")
        f = frame()
        ref = store.put(f)
        resolved = resolve_refs({"frame": ref}, store)
        assert resolved["frame"] is f
        assert store.contains(ref)

    def test_add_and_release_balance(self):
        store = FrameStore("phone")
        ref = store.put(frame())
        payload = {"frame": ref}
        assert add_refs(payload, store) == 1
        assert store.refcount(ref) == 2
        assert release_refs(payload, store) == 1
        assert store.refcount(ref) == 1

    def test_release_ignores_foreign_refs(self):
        phone = FrameStore("phone")
        desktop = FrameStore("desktop")
        ref = phone.put(frame())
        assert release_refs({"frame": ref}, desktop) == 0
        assert phone.contains(ref)


payload_shapes = st.recursive(
    st.none() | st.integers(-100, 100) | st.text(max_size=8)
    | st.just("FRAME_SLOT") | st.just("ENCODED_SLOT"),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(shape=payload_shapes)
@settings(max_examples=80)
def test_property_ship_land_roundtrip_balances_stores(shape):
    """For any payload shape: shipping from one store and landing on another
    moves every frame exactly once and leaks nothing."""
    phone = FrameStore("phone", capacity=1000)
    desktop = FrameStore("desktop", capacity=1000)
    counter = {"n": 0}

    def fill(leaf):
        if leaf == "FRAME_SLOT":
            counter["n"] += 1
            return phone.put(frame(counter["n"]))
        return leaf

    payload = map_leaves(shape, fill)
    n_frames = counter["n"]
    assert len(phone) == n_frames

    wire, _, shipped = encode_refs_for_wire(payload, phone)
    assert shipped == n_frames
    assert len(phone) == 0

    landed, _, count = decode_frames_from_wire(wire, desktop)
    assert count == n_frames
    assert len(desktop) == n_frames

    # every landed ref resolves to a distinct frame id
    ids = {desktop.get(r).frame_id for r in frame_refs_in(landed)}
    assert len(ids) == n_frames


@given(shape=payload_shapes, extra_holds=st.integers(0, 3))
@settings(max_examples=50)
def test_property_add_release_never_corrupts(shape, extra_holds):
    """add_refs/release_refs cycles leave refcounts exactly balanced."""
    store = FrameStore("dev", capacity=1000)
    counter = {"n": 0}

    def fill(leaf):
        if leaf == "FRAME_SLOT":
            counter["n"] += 1
            return store.put(frame(counter["n"]))
        return leaf

    payload = map_leaves(shape, fill)
    for _ in range(extra_holds):
        add_refs(payload, store)
    for _ in range(extra_holds):
        release_refs(payload, store)
    for ref in frame_refs_in(payload):
        assert store.refcount(ref) == 1


# -- the one-walk boundary ops against the full-rebuild reference ------------
def reference_resolve(payload, store):
    """Borrow as a pre-scan plus a full rebuild."""
    if not frame_refs_in(payload):
        return payload
    return map_leaves(
        payload,
        lambda leaf: store.get(leaf) if isinstance(leaf, FrameRef) else leaf,
    )


def reference_ship(payload, store, release=True):
    """Ship as a pre-scan plus a full rebuild."""
    if not frame_refs_in(payload):
        return payload, 0.0, 0
    totals = {"cost": 0.0, "shipped": 0}

    def ship(leaf):
        if not isinstance(leaf, FrameRef):
            return leaf
        obj = store.get(leaf)
        if release:
            store.release(leaf, reason=MIGRATED)
        if isinstance(obj, VideoFrame):
            encoded = encode_frame(obj)
            totals["cost"] += encoded.encode_cost_s
            totals["shipped"] += 1
            return encoded
        return obj

    return map_leaves(payload, ship), totals["cost"], totals["shipped"]


def _encoded_leaves(payload):
    return collect_leaves(payload, lambda leaf: isinstance(leaf, EncodedFrame))


def reference_land(payload, store):
    """Land as a pre-scan plus a full rebuild."""
    if not _encoded_leaves(payload):
        return payload, 0.0, 0
    totals = {"cost": 0.0, "landed": 0}

    def land(leaf):
        if not isinstance(leaf, EncodedFrame):
            return leaf
        totals["cost"] += leaf.decode_cost_s
        totals["landed"] += 1
        return store.put(decode_frame(leaf))

    return map_leaves(payload, land), totals["cost"], totals["landed"]


def reference_land_inline(payload):
    """Inline landing as a pre-scan plus a full rebuild."""
    if not _encoded_leaves(payload):
        return payload, 0.0
    totals = {"cost": 0.0}

    def land(leaf):
        if not isinstance(leaf, EncodedFrame):
            return leaf
        totals["cost"] += leaf.decode_cost_s
        return decode_frame(leaf)

    return map_leaves(payload, land), totals["cost"]


class RecordingStore(FrameStore):
    """A frame store that logs every get/release/put, in call order."""

    def __init__(self, device):
        super().__init__(device, capacity=1000)
        self.calls = []

    def get(self, ref):
        self.calls.append(("get", ref))
        return super().get(ref)

    def release(self, ref, reason=RELEASED):
        self.calls.append(("release", ref, reason))
        super().release(ref, reason=reason)

    def put(self, obj):
        ref = super().put(obj)
        self.calls.append(("put", ref, getattr(obj, "frame_id", None)))
        return ref


def _plain(payload):
    """*payload* with codec objects reduced to comparable tuples (two
    encodes of one frame are equal in every field but the copy)."""
    def plain(leaf):
        if isinstance(leaf, EncodedFrame):
            return ("encoded", leaf.frame.frame_id, leaf.quality,
                    leaf.wire_size, leaf.encode_cost_s, leaf.decode_cost_s)
        if isinstance(leaf, VideoFrame):
            return ("frame", leaf.frame_id)
        return leaf

    return map_leaves(payload, plain)


def _assert_copy_on_write(before, after, leaf_type):
    """Every sub-container of *before* without a *leaf_type* leaf is shared
    with *after* (the same object); every one with such a leaf is a copy."""
    has_leaf = bool(collect_leaves(before, lambda x: isinstance(x, leaf_type)))
    if isinstance(before, (dict, list, tuple)):
        assert (after is before) is not has_leaf
        pairs = (zip(before.values(), after.values())
                 if isinstance(before, dict) else zip(before, after))
        for old, new in pairs:
            _assert_copy_on_write(old, new, leaf_type)
    elif not has_leaf:
        assert after is before


def _fill(shape, store):
    """*shape* with each FRAME_SLOT a fresh ref in *store* and each
    ENCODED_SLOT an encoded frame (ids count up in walk order)."""
    counter = {"n": 0}

    def fill(leaf):
        if leaf == "FRAME_SLOT":
            counter["n"] += 1
            return store.put(VideoFrame(frame_id=counter["n"], source="cam",
                                        capture_time=0.0, width=64,
                                        height=48))
        if leaf == "ENCODED_SLOT":
            counter["n"] += 1
            return encode_frame(VideoFrame(frame_id=counter["n"],
                                           source="cam", capture_time=0.0,
                                           width=32, height=24))
        return leaf

    return map_leaves(shape, fill)


@given(shape=payload_shapes, release=st.booleans())
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_property_one_walk_ops_match_the_full_rebuild(shape, release):
    """Borrow, ship, land and inline landing each equal the pre-scan plus
    full-rebuild reference: the same payload, counts, codec costs and
    store calls in the same order, with a frame-free payload returned as
    itself and only the containers on a changed path copied."""
    # twin stores fed the same puts hold equal refs, so one payload serves
    # both the one-walk op and the reference
    walked, reference = RecordingStore("phone"), RecordingStore("phone")
    payload = _fill(shape, walked)
    assert _fill(shape, reference) == payload
    walked.calls.clear()
    reference.calls.clear()

    borrowed = resolve_refs(payload, walked)
    assert borrowed == reference_resolve(payload, reference)
    assert walked.calls == reference.calls
    _assert_copy_on_write(payload, borrowed, FrameRef)

    wire, cost, shipped = encode_refs_for_wire(payload, walked,
                                               release=release)
    ref_wire, ref_cost, ref_shipped = reference_ship(payload, reference,
                                                     release=release)
    assert _plain(wire) == _plain(ref_wire)
    assert (cost, shipped) == (ref_cost, ref_shipped)
    assert walked.calls == reference.calls
    _assert_copy_on_write(payload, wire, FrameRef)

    desk, ref_desk = RecordingStore("desktop"), RecordingStore("desktop")
    landed, cost, count = decode_frames_from_wire(wire, desk)
    ref_landed, ref_cost, ref_count = reference_land(wire, ref_desk)
    assert landed == ref_landed
    assert (cost, count) == (ref_cost, ref_count)
    assert desk.calls == ref_desk.calls
    _assert_copy_on_write(wire, landed, EncodedFrame)

    inline, cost = decode_frames_inline(wire)
    ref_inline, ref_cost = reference_land_inline(wire)
    assert _plain(inline) == _plain(ref_inline)
    assert cost == ref_cost
    _assert_copy_on_write(wire, inline, EncodedFrame)

    if not frame_refs_in(payload):
        assert borrowed is payload and wire is payload
    if not _encoded_leaves(wire):
        assert landed is wire and inline is wire
