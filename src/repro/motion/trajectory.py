"""Trajectory utilities: subject variation, placement, and noise.

Motion models live in a normalized body frame; these helpers turn them into
what a camera sees — a subject of some height standing somewhere in the
image — and add the per-subject and per-session variation that makes the
recognition problems non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exercises import MotionModel
from .skeleton import Pose


@dataclass(frozen=True, slots=True)
class SubjectParams:
    """Per-subject appearance/tempo variation.

    Attributes:
        height_px: subject height in image pixels.
        center_x: horizontal position of the subject's hips in the image.
        ground_y: image y of the subject's feet.
        tempo: multiplier on the motion model's period (>1 = slower).
        amplitude: multiplier on motion amplitude (how deep the squat is).
        phase_offset_s: where in the cycle the recording starts.
    """

    height_px: float = 320.0
    center_x: float = 320.0
    ground_y: float = 440.0
    tempo: float = 1.0
    amplitude: float = 1.0
    phase_offset_s: float = 0.0


def random_subject(
    rng: np.random.Generator,
    frame_width: int = 640,
    frame_height: int = 480,
) -> SubjectParams:
    """Draw plausible subject parameters for a living-room camera.

    The paper notes its accuracy benefits from "a standardized viewing
    distance and standardized viewing angle" (§4.1.2), so the variation here
    is deliberately moderate.
    """
    height = frame_height * float(rng.uniform(0.55, 0.75))
    return SubjectParams(
        height_px=height,
        center_x=frame_width * float(rng.uniform(0.38, 0.62)),
        ground_y=frame_height * float(rng.uniform(0.88, 0.96)),
        tempo=float(rng.uniform(0.8, 1.3)),
        amplitude=float(rng.uniform(0.85, 1.1)),
        phase_offset_s=float(rng.uniform(0.0, 2.0)),
    )


#: Body-frame vertical extent of the base pose (head top ~ -0.78, feet 0.90).
_BODY_TOP = -0.78
_BODY_BOTTOM = 0.90
_BODY_SPAN = _BODY_BOTTOM - _BODY_TOP


def place_in_image(pose: Pose, subject: SubjectParams) -> Pose:
    """Map a body-frame pose into image pixel coordinates for *subject*."""
    scale = subject.height_px / _BODY_SPAN
    keypoints = pose.keypoints * scale
    # feet (body y = 0.90) sit on ground_y; hips follow from the scale
    offset_y = subject.ground_y - _BODY_BOTTOM * scale
    keypoints[:, 0] += subject.center_x
    keypoints[:, 1] += offset_y
    return Pose(keypoints, pose.visibility.copy())


def subject_pose(model: MotionModel, subject: SubjectParams, t: float) -> Pose:
    """The image-space pose of *subject* performing *model* at time *t*."""
    body = model.pose_at((t + subject.phase_offset_s) / subject.tempo)
    if subject.amplitude != 1.0:
        neutral = model.neutral_keypoints
        keypoints = neutral + subject.amplitude * (body.keypoints - neutral)
        body = Pose(keypoints, body.visibility)
    return place_in_image(body, subject)


def sample_subject_sequence(
    model: MotionModel,
    subject: SubjectParams,
    fps: float,
    duration_s: float,
) -> list[Pose]:
    """Image-space pose sequence for a subject performing a motion."""
    count = int(round(fps * duration_s))
    return [subject_pose(model, subject, i / fps) for i in range(count)]
