"""JPEG-like frame codec: size and compute-cost models plus a real
pixel-domain round trip.

The paper ships JPEG-encoded frames between devices over ZeroMQ. Simulated
transfers need two numbers — the compressed size (what the link charges) and
the encode/decode CPU time (what the device charges). Both come from simple
published-shape models of libjpeg behaviour, calibrated so a VGA frame at
quality 80 is ≈45 KB, which matches the Wi-Fi airtime implicit in Fig. 6.

When a frame actually carries pixels, :func:`encode_frame` also performs a
real lossy round trip (block-DCT-free but faithful in spirit: chroma-less
quantization), so tests can verify content survives a codec boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .frame import VideoFrame

#: Per-pixel JPEG encode cost on the devices' hardware codec blocks.
ENCODE_NS_PER_PIXEL = 10.0
#: Decode is roughly 60% of encode cost.
DECODE_NS_PER_PIXEL = 6.0


def jpeg_bits_per_pixel(quality: int) -> float:
    """Approximate libjpeg output density for photographic content.

    Monotone in quality; ≈1.26 bpp at quality 80, ≈0.55 at quality 40.
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    q = quality / 100.0
    return 0.22 + 1.5 * (q ** 1.7)


def jpeg_size_model(width: int, height: int, quality: int) -> int:
    """Expected compressed size in bytes (plus fixed header overhead)."""
    return int(width * height * jpeg_bits_per_pixel(quality) / 8.0) + 600


@dataclass(slots=True)
class EncodedFrame:
    """A compressed frame as it travels on the wire.

    Carries the (possibly quantized) source frame by reference so the
    simulator does not copy pixel buffers, plus the size/cost numbers the
    transports and CPUs charge.
    """

    frame: VideoFrame
    quality: int
    wire_size: int
    encode_cost_s: float
    decode_cost_s: float

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EncodedFrame #{self.frame.frame_id} q={self.quality}"
            f" {self.wire_size}B>"
        )


def _quantize(pixels: np.ndarray, quality: int) -> np.ndarray:
    """A real lossy quantization: coarser levels at lower quality."""
    levels = max(2, int(4 + quality * 2.2))  # q=80 -> 180 levels; q=10 -> 26
    step = 256.0 / levels
    return (np.floor(pixels / step) * step + step / 2.0).clip(0, 255).astype(np.uint8)


def encode_frame(frame: VideoFrame, quality: int = 80) -> EncodedFrame:
    """Compress *frame*; pixel-bearing frames get genuinely quantized."""
    size = jpeg_size_model(frame.width, frame.height, quality)
    pixel_count = frame.width * frame.height
    encoded_pixels = None
    if frame.pixels is not None:
        encoded_pixels = _quantize(frame.pixels, quality)
    deferred = frame._truth_source is not None
    carried = VideoFrame(
        frame_id=frame.frame_id,
        source=frame.source,
        capture_time=frame.capture_time,
        width=frame.width,
        height=frame.height,
        channels=frame.channels,
        pixels=encoded_pixels,
        truth=None if deferred else frame.truth,
        metadata=dict(frame.metadata),
    )
    if deferred:  # the copy reads the pose through the frame: computed once
        carried._defer_truth(partial(getattr, frame, "truth"))
    return EncodedFrame(
        frame=carried,
        quality=quality,
        wire_size=size,
        encode_cost_s=pixel_count * ENCODE_NS_PER_PIXEL * 1e-9,
        decode_cost_s=pixel_count * DECODE_NS_PER_PIXEL * 1e-9,
    )


def decode_frame(encoded: EncodedFrame) -> VideoFrame:
    """Decompress back to a :class:`VideoFrame` (lossy if pixels present)."""
    return encoded.frame


def psnr(original: np.ndarray, degraded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images.

    A referee: no run calls it; ``tests/frames/test_codec.py`` measures the
    quantizer's loss with it."""
    if original.shape != degraded.shape:
        raise ValueError("images must have identical shapes")
    mse = float(np.mean((original.astype(np.float64) - degraded.astype(np.float64)) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)
