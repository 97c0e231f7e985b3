"""Unit and property tests for the binary wire codec and size model.

``REPRO_FUZZ_N`` scales the example budget of the size reference test like
the other fuzz suites (default 300; CI's audit job runs 3000).
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frames import FrameRef, VideoFrame
from repro.frames.codec import EncodedFrame, encode_frame
from repro.net import Address, Message, wire
from repro.net.wire import (
    ENVELOPE_OVERHEAD,
    WireFormatError,
    _size_by_cascade,
    _size_of,
    decode,
    encode,
    payload_size,
)

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    3.14159,
    float("inf"),
    "",
    "hello",
    "ünïcødé ☃",
    b"",
    b"\x00\xff raw",
    [],
    [1, "two", 3.0, None],
    (1, 2),
    {},
    {"nested": {"list": [1, [2, [3]]]}, "flag": True},
]


class TestRoundtrip:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_scalar_and_container_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_preserved_as_tuple(self):
        assert decode(encode((1, 2))) == (1, 2)
        assert isinstance(decode(encode((1, 2))), tuple)

    @pytest.mark.parametrize("dtype", ["uint8", "int32", "float32", "float64"])
    def test_ndarray_roundtrip(self, dtype):
        array = (np.arange(24).reshape(2, 3, 4) % 7).astype(dtype)
        result = decode(encode(array))
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        np.testing.assert_array_equal(result, array)

    def test_zero_dim_array_roundtrip(self):
        array = np.array(5.0)
        result = decode(encode(array))
        assert result.shape == ()
        assert float(result) == 5.0

    def test_numpy_scalars_become_python_scalars(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float32(0.5))) == pytest.approx(0.5)

    def test_noncontiguous_array_roundtrip(self):
        array = np.arange(20).reshape(4, 5)[:, ::2]
        np.testing.assert_array_equal(decode(encode(array)), array)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(WireFormatError):
            encode(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(WireFormatError):
            encode({1: "x"})

    def test_bad_magic_rejected(self):
        with pytest.raises(WireFormatError):
            decode(b"XX\x01\x00")

    def test_truncated_data_rejected(self):
        data = encode([1, 2, 3])
        with pytest.raises(WireFormatError):
            decode(data[:-2])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireFormatError):
            decode(encode(1) + b"extra")

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireFormatError):
            decode(b"VP\x01\xfe")


class TestSizeModel:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_size_matches_actual_encoding(self, value):
        if value == float("inf"):
            pytest.skip("inf equality quirk irrelevant here")
        expected = ENVELOPE_OVERHEAD + len(encode(value))
        assert payload_size(value) == expected

    def test_size_of_array_dominated_by_data(self):
        frame = np.zeros((480, 640, 3), dtype=np.uint8)
        size = payload_size(frame)
        assert size > frame.nbytes
        assert size < frame.nbytes + 200

    def test_wire_size_hint_honored(self):
        class Encoded:
            wire_size = 45000

        assert payload_size(Encoded()) == ENVELOPE_OVERHEAD + 3 + 45000


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=20,
)


@given(value=json_like)
@settings(max_examples=150)
def test_property_roundtrip(value):
    assert decode(encode(value)) == value


@given(value=json_like)
@settings(max_examples=150)
def test_property_size_model_is_exact(value):
    assert payload_size(value) == ENVELOPE_OVERHEAD + len(encode(value))
    # asking the walk what it saw changes no size; plain values hint nothing
    hinted = []
    assert payload_size(value, hinted) == ENVELOPE_OVERHEAD + len(encode(value))
    assert hinted == []


class Flag(int):
    pass


class Name(str):
    pass


class Items(list):
    pass


class Record(dict):
    pass


def _outcome(size_of, value):
    try:
        return size_of(value)
    except WireFormatError as exc:
        return type(exc)


#: Every kind of leaf a payload holds: plain values (ASCII and non-ASCII
#: text), subclasses, numpy scalars and arrays, and wire-size hints.
wire_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats()
    | st.text(max_size=20)
    | st.text(alphabet=st.characters(max_codepoint=127), max_size=20)
    | st.binary(max_size=20)
    | st.binary(max_size=20).map(bytearray)
    | st.integers(min_value=-5, max_value=5).map(Flag)
    | st.text(max_size=10).map(Name)
    | st.integers(min_value=-(2**31), max_value=2**31).map(np.int64)
    | st.integers(min_value=0, max_value=255).map(np.uint8)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64)
    | st.booleans().map(np.bool_)
    | st.tuples(
        st.sampled_from(["uint8", "int32", "float32", "float64", "<U3"]),
        st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    ).map(lambda spec: np.zeros(spec[1], dtype=spec[0]))
    | st.builds(FrameRef, st.text(max_size=8), st.integers(0, 10**6))
    | st.builds(
        lambda w, h, q: encode_frame(
            VideoFrame(frame_id=1, source="cam", capture_time=0.0,
                       width=w, height=h),
            q,
        ),
        st.integers(16, 1920), st.integers(16, 1080), st.integers(1, 100),
    )
)

wire_payloads = st.recursive(
    wire_leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(children, max_size=5).map(Items)
    | st.dictionaries(st.text(max_size=10) | st.integers(), children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5).map(Record),
    max_leaves=25,
)


def _hinted_by_full_scan(value):
    """Every ``wire_size``-hinted leaf of *value*, depth-first, by a plain
    ``isinstance`` walk of dict values, lists and tuples."""
    if isinstance(value, dict):
        return [leaf for item in value.values()
                for leaf in _hinted_by_full_scan(item)]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _hinted_by_full_scan(item)]
    if isinstance(value, (str, bytes, bytearray, np.ndarray, np.generic)):
        return []
    return [value] if getattr(value, "wire_size", None) is not None else []


@given(value=wire_payloads)
@example(value={"label": "ünïcødé ☃", "n": [True, 1, 1.0, None]})
@example(value=[Name("é"), Flag(1), np.int64(3), object()])
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_sizes_by_exact_type_equal_the_cascade(value):
    """The exact-type dispatch gives the cascade's integer (or its error)
    for every payload the reference can size. A message's size walk also
    records the same hinted leaves, in the same order, as a full scan, so
    "it saw an encoded frame" (the rule that lets a receiver skip landing)
    agrees with the scan."""
    outcome = _outcome(_size_by_cascade, value)
    assert _outcome(_size_of, value) == outcome
    if outcome is WireFormatError:
        return
    message = Message(kind="data", dst=Address("desktop", 1), payload=value)
    scanned = _hinted_by_full_scan(value)
    assert len(message.hinted) == len(scanned)
    assert all(seen is found for seen, found in zip(message.hinted, scanned))
    assert (any(isinstance(leaf, EncodedFrame) for leaf in message.hinted)
            == any(isinstance(leaf, EncodedFrame) for leaf in scanned))
    assert message.size_bytes == payload_size(value) + payload_size({})


def test_a_hinted_leaf_of_a_known_type_skips_the_cascade(monkeypatch):
    """Once a frame ref has been sized by its hint, every later one is
    sized by its exact type: none takes the ``isinstance`` cascade."""
    first, second = FrameRef("phone", 1), FrameRef("tv", 2)
    assert _size_of(first) == first.wire_size

    def cascade(value, hinted=None):
        raise AssertionError(f"{value!r} took the cascade")

    monkeypatch.setattr(wire, "_size_by_cascade", cascade)
    hinted = []
    assert _size_of([first, second], hinted) == 5 + 2 * first.wire_size
    assert hinted == [first, second]
