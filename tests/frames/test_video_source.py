"""Unit tests for the paced video source and its credit-gated flow control."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.frames import SyntheticCamera, VideoFrame, VideoSource
from repro.motion import Squat
from repro.sim import Kernel


def simple_camera(frame_id, t):
    return VideoFrame(frame_id=frame_id, source="phone", capture_time=t)


class TestSyntheticCamera:
    def test_annotated_capture_carries_truth(self):
        camera = SyntheticCamera("phone", Squat())
        frame = camera.capture(1, 0.25)
        assert frame.truth is not None
        assert frame.pixels is None
        assert frame.metadata["activity"] == "squat"
        assert frame.capture_time == 0.25

    def test_motion_advances_with_time(self):
        camera = SyntheticCamera("phone", Squat(period_s=2.0))
        top = camera.capture(1, 0.0).truth.hip_center()[1]
        bottom = camera.capture(2, 1.0).truth.hip_center()[1]
        assert bottom > top


class TestVideoSourceValidation:
    def test_rejects_bad_fps(self):
        with pytest.raises(ConfigError):
            VideoSource(Kernel(), simple_camera, fps=0, deliver=lambda f: None)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            VideoSource(Kernel(), simple_camera, fps=10, deliver=lambda f: None,
                        mode="best-effort")

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigError):
            VideoSource(Kernel(), simple_camera, fps=10, deliver=lambda f: None,
                        jitter_cv=0.1)

    def test_double_start_rejected(self):
        kernel = Kernel()
        source = VideoSource(kernel, simple_camera, fps=10, deliver=lambda f: None)
        source.start(max_frames=1)
        with pytest.raises(ConfigError):
            source.start(max_frames=1)


class TestSignalMode:
    def test_fast_sink_receives_every_frame(self):
        kernel = Kernel()
        received = []

        def deliver(frame):
            received.append(frame)
            # instant processing: grant the next credit immediately
            source.grant_credit()

        source = VideoSource(kernel, simple_camera, fps=10, deliver=deliver)
        source.start(duration_s=1.0)
        kernel.run()
        assert source.captured_count == 10
        assert len(received) == 10
        assert source.dropped_count == 0

    def test_slow_sink_drops_at_source(self):
        kernel = Kernel()
        received = []

        def deliver(frame):
            received.append(frame)
            # sink takes 250 ms per frame at a 10 fps source
            kernel.schedule(0.250, source.grant_credit)

        source = VideoSource(kernel, simple_camera, fps=10, deliver=deliver)
        source.start(duration_s=3.0)
        kernel.run()
        assert source.captured_count == 30
        # credit returns every 250 ms and the freshest buffered frame goes
        # out immediately: throughput tracks the sink, not the capture tick
        assert 10 <= len(received) <= 13
        assert source.dropped_count > 10
        assert source.dropped_count / source.captured_count > 0.3
        # admitted frames are always the freshest available at credit time
        capture_times = [f.capture_time for f in received]
        assert capture_times == sorted(capture_times)

    def test_only_one_frame_in_flight(self):
        kernel = Kernel()
        in_flight = {"count": 0, "max": 0}

        def deliver(frame):
            in_flight["count"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["count"])

            def finish():
                in_flight["count"] -= 1
                source.grant_credit()

            kernel.schedule(0.150, finish)

        source = VideoSource(kernel, simple_camera, fps=30, deliver=deliver)
        source.start(duration_s=2.0)
        kernel.run()
        assert in_flight["max"] == 1

    def test_excess_credit_does_not_accumulate(self):
        kernel = Kernel()
        received = []
        source = VideoSource(kernel, simple_camera, fps=10,
                             deliver=lambda f: received.append(f))
        for _ in range(5):
            source.grant_credit()  # spurious extra grants
        source.start(duration_s=0.55)
        kernel.run()
        assert len(received) == 1  # one credit -> one frame, no burst

    def test_without_ready_signals_the_source_stalls(self):
        """The gate has no clock of its own: a credit comes back only when
        something grants it, so a source nobody signals admits one frame."""
        kernel = Kernel()
        received = []
        source = VideoSource(kernel, simple_camera, fps=10,
                             deliver=received.append)
        source.start(duration_s=3.0)
        kernel.run()
        assert len(received) == 1


class TestPushMode:
    def test_push_mode_never_drops(self):
        kernel = Kernel()
        received = []
        source = VideoSource(kernel, simple_camera, fps=20,
                             deliver=lambda f: received.append(f), mode="push")
        source.start(duration_s=1.0)
        kernel.run()
        assert len(received) == 20
        assert source.dropped_count == 0


class TestPacing:
    def test_max_frames_limit(self):
        kernel = Kernel()
        received = []
        source = VideoSource(kernel, simple_camera, fps=100,
                             deliver=lambda f: received.append(f), mode="push")
        source.start(max_frames=7)
        kernel.run()
        assert len(received) == 7

    def test_stop_halts_capture(self):
        kernel = Kernel()
        source = VideoSource(kernel, simple_camera, fps=10,
                             deliver=lambda f: None, mode="push")
        source.start(duration_s=10.0)
        kernel.schedule(0.5, source.stop)
        kernel.run()
        assert source.captured_count <= 7

    def test_jittered_intervals_vary_but_average_out(self):
        kernel = Kernel()
        times = []
        source = VideoSource(
            kernel, simple_camera, fps=10, deliver=lambda f: times.append(kernel.now),
            mode="push", jitter_cv=0.2, rng=np.random.default_rng(0),
        )
        source.start(max_frames=200)
        kernel.run()
        intervals = np.diff(times)
        assert intervals.std() > 0
        assert intervals.mean() == pytest.approx(0.1, rel=0.1)
