"""Unit tests for the frame codec."""

import numpy as np
import pytest

from repro.frames import VideoFrame, decode_frame, encode_frame
from repro.frames.codec import jpeg_bits_per_pixel, jpeg_size_model, psnr


def make_frame(pixels=None, width=640, height=480):
    return VideoFrame(
        frame_id=1, source="phone", capture_time=0.0,
        width=width, height=height, pixels=pixels,
    )


class TestSizeModel:
    def test_vga_quality80_near_45kb(self):
        size = jpeg_size_model(640, 480, 80)
        assert 38000 < size < 55000

    def test_monotone_in_quality(self):
        sizes = [jpeg_size_model(640, 480, q) for q in (10, 40, 70, 95)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1] / 2

    def test_scales_with_resolution(self):
        small = jpeg_size_model(320, 240, 80)
        large = jpeg_size_model(640, 480, 80)
        assert large > small * 3.5

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            jpeg_bits_per_pixel(0)
        with pytest.raises(ValueError):
            jpeg_bits_per_pixel(101)


class TestEncodeDecode:
    def test_annotated_frame_roundtrip_preserves_metadata(self):
        frame = make_frame()
        frame.metadata["activity"] = "squat"
        encoded = encode_frame(frame, quality=80)
        decoded = decode_frame(encoded)
        assert decoded.frame_id == 1
        assert decoded.metadata["activity"] == "squat"
        assert decoded.pixels is None

    def test_wire_size_matches_model(self):
        frame = make_frame()
        encoded = encode_frame(frame, quality=60)
        assert encoded.wire_size == jpeg_size_model(640, 480, 60)

    def test_costs_scale_with_pixel_count(self):
        small = encode_frame(make_frame(width=320, height=240))
        large = encode_frame(make_frame(width=640, height=480))
        assert large.encode_cost_s == pytest.approx(small.encode_cost_s * 4)
        assert large.decode_cost_s < large.encode_cost_s

    def test_pixel_frame_is_lossy_but_close(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (120, 160), dtype=np.uint8)
        frame = make_frame(pixels=pixels, width=160, height=120)
        decoded = decode_frame(encode_frame(frame, quality=80))
        assert decoded.pixels is not None
        assert decoded.pixels.dtype == np.uint8
        assert psnr(pixels, decoded.pixels) > 30.0
        assert not np.array_equal(pixels, decoded.pixels)  # genuinely lossy

    def test_lower_quality_degrades_more(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (60, 80), dtype=np.uint8)
        frame = make_frame(pixels=pixels, width=80, height=60)
        high = decode_frame(encode_frame(frame, quality=95)).pixels
        low = decode_frame(encode_frame(frame, quality=10)).pixels
        assert psnr(pixels, high) > psnr(pixels, low)

    def test_original_frame_pixels_untouched(self):
        pixels = np.full((60, 80), 100, dtype=np.uint8)
        frame = make_frame(pixels=pixels, width=80, height=60)
        encode_frame(frame, quality=10)
        assert (frame.pixels == 100).all()


class TestPsnr:
    def test_identical_images_infinite(self):
        image = np.zeros((4, 4), dtype=np.uint8)
        assert psnr(image, image) == float("inf")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((5, 5)))
