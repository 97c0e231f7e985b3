"""Binary wire format and payload size accounting.

Two jobs:

* :func:`encode` / :func:`decode` — an actual self-describing binary codec
  for the value types that cross module/service boundaries (None, bool, int,
  float, str, bytes, list, tuple, dict, numpy arrays). Nothing under
  ``src/`` calls it: it is the reference that ``tests/net/test_wire.py``
  holds :func:`payload_size` to.
* :func:`payload_size` — the byte size the simulator charges to the link for
  a payload, which is simply the length of its encoding (computed without
  materializing the buffer for large arrays).
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from ..errors import NetworkError

_MAGIC = b"VP"
_VERSION = 1

# Type tags
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_DICT = 8
_T_NDARRAY = 9
_T_TUPLE = 10

#: Fixed per-message envelope overhead in bytes (headers, framing); matches
#: a small ZeroMQ frame plus our envelope fields.
ENVELOPE_OVERHEAD = 64


class WireFormatError(NetworkError):
    """Raised when decoding malformed wire bytes."""


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        out += struct.pack("<q", value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        out += struct.pack("<I", len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += struct.pack("<I", len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, out)
            _encode_into(item, out)
    elif isinstance(value, np.ndarray):
        header = value.dtype.str.encode("ascii")
        out.append(_T_NDARRAY)
        out += struct.pack("<B", len(header))
        out += header
        out += struct.pack("<B", value.ndim)
        out += struct.pack(f"<{value.ndim}q", *value.shape)
        data = np.ascontiguousarray(value).tobytes()
        out += struct.pack("<Q", len(data))
        out += data
    elif isinstance(value, (np.integer,)):
        _encode_into(int(value), out)
    elif isinstance(value, (np.floating,)):
        _encode_into(float(value), out)
    else:
        raise WireFormatError(f"unsupported wire type: {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Serialize *value* to self-describing wire bytes."""
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    _encode_into(value, out)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WireFormatError("truncated wire data")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return reader.unpack("<q")[0]
    if tag == _T_FLOAT:
        return reader.unpack("<d")[0]
    if tag == _T_STR:
        (length,) = reader.unpack("<I")
        return reader.take(length).decode("utf-8")
    if tag == _T_BYTES:
        (length,) = reader.unpack("<I")
        return bytes(reader.take(length))
    if tag in (_T_LIST, _T_TUPLE):
        (length,) = reader.unpack("<I")
        items = [_decode_from(reader) for _ in range(length)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        (length,) = reader.unpack("<I")
        result = {}
        for _ in range(length):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _T_NDARRAY:
        (header_len,) = reader.unpack("<B")
        dtype = np.dtype(reader.take(header_len).decode("ascii"))
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}q") if ndim else ()
        (nbytes,) = reader.unpack("<Q")
        raw = reader.take(nbytes)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    raise WireFormatError(f"unknown wire tag {tag}")


def decode(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`encode`."""
    reader = _Reader(data)
    if reader.take(2) != _MAGIC:
        raise WireFormatError("bad magic; not VideoPipe wire data")
    version = reader.take(1)[0]
    if version != _VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise WireFormatError("trailing bytes after wire value")
    return value


#: The cascade's own types: a type that subclasses none of them is sized by
#: its ``wire_size`` hint, or not at all.
_CASCADE_TYPES = (int, np.integer, float, np.floating, str, bytes, bytearray,
                  memoryview, list, tuple, dict, np.ndarray)
#: Exact types the cascade has sized by their hint (frame refs, encoded
#: frames, arena handles, poses): :func:`_size_of` sizes them the same way
#: by one set test, with no ``isinstance`` before the hint.
_BY_HINT: set[type] = set()


def _size_of(value: Any, hinted: list | None = None) -> int:
    """Size of the encoding of *value*, without building the buffer.

    The plain types payloads are made of are dispatched on their exact
    type; an ASCII string's UTF-8 length is its ``len``; a type already
    sized by its ``wire_size`` hint is read by that hint. Everything else —
    subclasses, numpy scalars and arrays, a hinted type's first leaf —
    takes :func:`_size_by_cascade`, which gives the same integers for all
    types.
    """
    kind = type(value)
    if kind is dict:
        size = 5
        for key, item in value.items():
            # an ASCII str key and a number, the usual entry, cost no call
            size += (5 + len(key) if type(key) is str and key.isascii()
                     else _size_of(key))
            kind = type(item)
            size += 9 if kind is int or kind is float else _size_of(item, hinted)
        return size
    if kind is str:
        return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if kind is int or kind is float:
        return 9
    if kind is list or kind is tuple:
        size = 5
        for item in value:
            size += _size_of(item, hinted)
        return size
    if value is None or kind is bool:
        return 1
    if kind in _BY_HINT:
        hint = value.wire_size
        if hint is not None:
            if hinted is not None:
                hinted.append(value)
            return int(hint)
    size = _size_by_cascade(value, hinted)
    if not issubclass(kind, _CASCADE_TYPES):  # it was sized by its hint
        _BY_HINT.add(kind)
    return size


def _size_by_cascade(value: Any, hinted: list | None = None) -> int:
    """:func:`_size_of` for any type, by ``isinstance`` tests in the order
    the encoder makes them."""
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, (int, np.integer)):
        return 9
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 5 + len(value)
    if isinstance(value, (list, tuple)):
        return 5 + sum(_size_by_cascade(item, hinted) for item in value)
    if isinstance(value, dict):
        return 5 + sum(
            _size_by_cascade(k) + _size_by_cascade(v, hinted)
            for k, v in value.items()
        )
    if isinstance(value, np.ndarray):
        dtype_len = len(value.dtype.str.encode("ascii"))
        return 1 + 1 + dtype_len + 1 + 8 * value.ndim + 8 + value.nbytes
    # Objects with an explicit wire-size hint (e.g. encoded video frames
    # carry their compressed size without holding real pixel buffers).
    hint = getattr(value, "wire_size", None)
    if hint is not None:
        if hinted is not None:
            hinted.append(value)
        return int(hint)
    raise WireFormatError(f"unsupported wire type: {type(value).__name__}")


def payload_size(value: Any, hinted: list | None = None) -> int:
    """Bytes this payload occupies on the wire, including envelope overhead.

    The walk visits every leaf, so it also reports what it saw: given a
    *hinted* list, it appends each leaf sized by its ``wire_size`` hint
    (frame refs, encoded frames), in walk order. Dict keys are sized but
    not reported."""
    return ENVELOPE_OVERHEAD + 3 + _size_of(value, hinted)
