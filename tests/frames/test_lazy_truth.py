"""An annotated camera's pose is computed when it is read, once.

``SyntheticCamera`` binds ``(motion, subject, t)`` at capture and
``VideoFrame.truth`` computes the pose on its first read. These tests hold
the deferred pose to the eager formula bit for bit, and count the calls:
at most one per capture, none for a frame nobody reads (a fleet frame, a
frame dropped at the source), none in ``encode_frame``. A frozen camera
stays eager.
"""

import numpy as np
import pytest

import repro.frames.video_source as video_source
from repro.fleet import Fleet, FleetConfig
from repro.frames import SyntheticCamera, VideoSource
from repro.frames.codec import encode_frame
from repro.frames.digest import content_digest
from repro.motion import SubjectParams, make_model, random_subject, subject_pose
from repro.motion.exercises import MODEL_BY_NAME
from repro.sim import Kernel

TIMES = [round(0.173 * i, 3) for i in range(24)]
SUBJECTS = [
    SubjectParams(),
    SubjectParams(amplitude=0.7, tempo=1.3, phase_offset_s=0.4),
    *(random_subject(np.random.default_rng(seed)) for seed in range(3)),
]


def pose_bits(pose):
    return (
        [float(x).hex() for x in pose.keypoints.ravel()],
        pose.visibility.tolist(),
    )


@pytest.fixture
def pose_calls(monkeypatch):
    """Count the camera's ``subject_pose`` calls."""
    calls = []

    def counted(model, subject, t):
        calls.append(t)
        return subject_pose(model, subject, t)

    monkeypatch.setattr(video_source, "subject_pose", counted)
    return calls


@pytest.mark.parametrize("name", sorted(MODEL_BY_NAME))
def test_deferred_truth_equals_the_eager_pose(name):
    model = make_model(name, period_s=1.7)
    for subject in SUBJECTS:
        camera = SyntheticCamera("cam", model, subject=subject)
        for index, t in enumerate(TIMES):
            frame = camera.capture(index, t)
            assert pose_bits(frame.truth) == pose_bits(
                subject_pose(model, subject, t)
            )


def test_computed_on_first_read_and_kept(pose_calls):
    frame = SyntheticCamera("cam", make_model("squat")).capture(1, 0.5)
    assert pose_calls == []
    first = frame.truth
    assert frame.truth is first
    assert pose_calls == [0.5]


def test_encode_frame_carries_the_pose_without_computing_it(pose_calls):
    frame = SyntheticCamera("cam", make_model("squat")).capture(1, 0.5)
    carried = encode_frame(encode_frame(frame).frame).frame
    assert pose_calls == []
    # the copy and the captured frame share one computation
    assert carried.truth is frame.truth
    assert pose_calls == [0.5]
    assert carried == frame


def test_the_digest_reads_the_pose(pose_calls):
    camera = SyntheticCamera("cam", make_model("squat"))
    a, b = camera.capture(1, 0.5), camera.capture(2, 0.5)
    assert content_digest(a) == content_digest(b)
    assert pose_calls == [0.5, 0.5]
    eager = SyntheticCamera("cam", make_model("squat"), freeze=True)
    assert content_digest(camera.capture(3, 0.0)) == content_digest(
        eager.capture(3, 0.0)
    )


def test_frames_dropped_at_the_source_are_never_computed(pose_calls):
    """A sink that grants the credit back 0.25 s after each admission at a
    30 fps camera: most captures are dropped at the source, unread."""
    kernel = Kernel()
    camera = SyntheticCamera("cam", make_model("squat"))
    admitted, dropped = [], []

    def deliver(frame):
        admitted.append(frame)
        frame.truth  # the pose service's read
        kernel.schedule(0.25, source.grant_credit)

    source = VideoSource(kernel, camera, fps=30.0, deliver=deliver,
                         on_drop=dropped.append)
    source.start(duration_s=3.0)
    kernel.run()
    assert source.dropped_count > source.emitted_count > 5
    assert len(pose_calls) == len(admitted) == source.emitted_count
    assert all(frame._truth_source is not None for frame in dropped)


def test_no_fleet_frame_computes_its_pose(pose_calls):
    fleet = Fleet(FleetConfig(homes=3, seed=5, strategy="colocated",
                              workload="stage", fps_choices=(6.0,),
                              duration_s=2.0, tail_s=0.5))
    fleet.run()
    captured = sum(
        p.module_instance(p.config.source_module).source.captured_count
        for p in fleet.pipelines
    )
    assert captured > 0
    assert pose_calls == []


def test_a_frozen_camera_computes_once(pose_calls):
    camera = SyntheticCamera("cam", make_model("squat"), freeze=True)
    frames = [camera.capture(index, 0.1 * index) for index in range(5)]
    assert pose_calls == [0.0]
    assert all(frame._truth_source is None for frame in frames)
    assert all(frame.truth is frames[0].truth for frame in frames)
