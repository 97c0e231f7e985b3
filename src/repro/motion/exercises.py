"""Parametric motion models for exercises and gestures.

These stand in for the humans in front of the paper's camera: each model
produces a plausible 17-keypoint pose as a deterministic function of time,
in a hip-centered "body frame" (x right, y down, torso length ~0.5 units).
The fitness pipeline's recognizers are then trained and evaluated on
sequences sampled from these models (plus estimator noise), exactly the role
the authors' recorded workout data plays in §4.1.2–4.1.3.
"""

from __future__ import annotations

import math

import numpy as np

from .skeleton import KEYPOINT_INDEX as KP
from .skeleton import NUM_KEYPOINTS, Pose


def base_pose() -> np.ndarray:
    """A neutral standing pose in the body frame (hips at the origin)."""
    pose = np.zeros((NUM_KEYPOINTS, 2))

    def put(name: str, x: float, y: float) -> None:
        pose[KP[name]] = (x, y)

    put("nose", 0.00, -0.75)
    put("left_eye", -0.05, -0.78)
    put("right_eye", 0.05, -0.78)
    put("left_ear", -0.10, -0.75)
    put("right_ear", 0.10, -0.75)
    put("left_shoulder", -0.20, -0.50)
    put("right_shoulder", 0.20, -0.50)
    put("left_elbow", -0.26, -0.25)
    put("right_elbow", 0.26, -0.25)
    put("left_wrist", -0.28, 0.02)
    put("right_wrist", 0.28, 0.02)
    put("left_hip", -0.12, 0.00)
    put("right_hip", 0.12, 0.00)
    put("left_knee", -0.13, 0.45)
    put("right_knee", 0.13, 0.45)
    put("left_ankle", -0.14, 0.90)
    put("right_ankle", 0.14, 0.90)
    return pose


_UPPER_BODY = [
    KP[name]
    for name in (
        "nose", "left_eye", "right_eye", "left_ear", "right_ear",
        "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
        "left_wrist", "right_wrist", "left_hip", "right_hip",
    )
]
_KNEES = [KP["left_knee"], KP["right_knee"]]
_ANKLES = [KP["left_ankle"], KP["right_ankle"]]
_ARMS_LEFT = [KP["left_elbow"], KP["left_wrist"]]
_ARMS_RIGHT = [KP["right_elbow"], KP["right_wrist"]]


class MotionModel:
    """Base class: a named, (usually) periodic pose trajectory.

    Attributes:
        name: the activity label recognizers learn.
        period_s: seconds per repetition (or total duration for aperiodic
            motions such as a fall).
        periodic: whether ``pose_at`` wraps time around ``period_s``.
    """

    name = "motion"
    periodic = True

    def __init__(self, period_s: float = 2.0, amplitude: float = 1.0) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.period_s = period_s
        self.amplitude = amplitude

    def phase(self, t: float) -> float:
        """Normalized cycle position in [0, 1)."""
        if self.periodic:
            return (t / self.period_s) % 1.0
        return min(max(t / self.period_s, 0.0), 1.0)

    def pose_at(self, t: float) -> Pose:
        """The body-frame pose at time *t* seconds."""
        return Pose(self._keypoints_at(self.phase(t)))

    def _keypoints_at(self, phase: float) -> np.ndarray:
        raise NotImplementedError

    def sample(self, fps: float, duration_s: float, t0: float = 0.0) -> list[Pose]:
        """Poses at ``fps`` over ``duration_s`` seconds starting at ``t0``."""
        count = int(round(duration_s * fps))
        return [self.pose_at(t0 + i / fps) for i in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} period={self.period_s:.2f}s>"


def _raise_cos(phase: float) -> float:
    """0 at phase 0, 1 at phase 0.5, back to 0 at phase 1 (smooth)."""
    return (1.0 - math.cos(2.0 * math.pi * phase)) / 2.0


class Squat(MotionModel):
    """Hips drop and knees flex; ankles stay planted."""

    name = "squat"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        depth = 0.35 * self.amplitude * _raise_cos(phase)
        pose[_UPPER_BODY, 1] += depth
        pose[_KNEES, 1] += depth * 0.45
        pose[_KNEES, 0] *= 1.0 + depth * 1.2  # knees track outward
        # arms extend forward as a counterbalance
        reach = depth * 1.1
        pose[_ARMS_LEFT, 0] -= reach * 0.3
        pose[_ARMS_RIGHT, 0] += reach * 0.3
        pose[[KP["left_wrist"], KP["right_wrist"]], 1] -= reach * 0.8
        return pose


class JumpingJack(MotionModel):
    """Arms sweep from the sides to overhead while the feet jump apart."""

    name = "jumping_jack"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        lift = _raise_cos(phase) * self.amplitude
        # arm sweep: rotate arms about the shoulders from down (0 rad) to
        # nearly overhead (~2.6 rad)
        angle = lift * 2.6
        for side, sign in (("left", -1.0), ("right", 1.0)):
            shoulder = pose[KP[f"{side}_shoulder"]]
            for joint, radius in ((f"{side}_elbow", 0.26), (f"{side}_wrist", 0.55)):
                pose[KP[joint]] = shoulder + radius * np.array(
                    [sign * math.sin(angle), math.cos(angle)]
                )
        # leg spread
        spread = lift * 0.22
        pose[_ANKLES, 0] += np.array([-spread, spread])
        pose[_KNEES, 0] += np.array([-spread * 0.5, spread * 0.5])
        # slight bounce
        pose[:, 1] -= lift * 0.04
        return pose


class Lunge(MotionModel):
    """One leg steps forward while the body drops."""

    name = "lunge"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        depth = _raise_cos(phase) * self.amplitude
        step = depth * 0.30
        drop = depth * 0.25
        # leading (right) leg forward, trailing knee toward the ground
        pose[KP["right_ankle"], 0] += step
        pose[KP["right_knee"], 0] += step * 0.8
        pose[KP["left_knee"], 1] += drop * 0.9
        pose[KP["left_knee"], 0] -= step * 0.3
        pose[_UPPER_BODY, 1] += drop
        return pose


class LateralRaise(MotionModel):
    """Straight arms rise from the sides to shoulder height."""

    name = "lateral_raise"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        lift = _raise_cos(phase) * self.amplitude
        angle = lift * (math.pi / 2.0)  # 0 = arms down, pi/2 = horizontal
        for side, sign in (("left", -1.0), ("right", 1.0)):
            shoulder = pose[KP[f"{side}_shoulder"]]
            direction = np.array([sign * math.sin(angle), math.cos(angle)])
            pose[KP[f"{side}_elbow"]] = shoulder + 0.26 * direction
            pose[KP[f"{side}_wrist"]] = shoulder + 0.55 * direction
        return pose


class Wave(MotionModel):
    """One raised hand oscillates — the gesture app's 'waving' trigger."""

    name = "wave"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        shoulder = pose[KP["right_shoulder"]]
        pose[KP["right_elbow"]] = shoulder + np.array([0.16, -0.18])
        sway = math.sin(2.0 * math.pi * phase) * 0.16 * self.amplitude
        pose[KP["right_wrist"]] = pose[KP["right_elbow"]] + np.array([sway, -0.26])
        return pose


class Clap(MotionModel):
    """Hands meet in front of the chest — the 'clapping' trigger."""

    name = "clap"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        closeness = _raise_cos(phase) * self.amplitude
        for side, sign in (("left", -1.0), ("right", 1.0)):
            pose[KP[f"{side}_elbow"]] = np.array([sign * 0.24, -0.32])
            x = sign * (0.26 - 0.24 * closeness)
            pose[KP[f"{side}_wrist"]] = np.array([x, -0.42])
        return pose


class Fall(MotionModel):
    """An aperiodic fall: the body rotates from vertical to lying flat.

    Used by the fall-detection application (§4.3). After ``period_s`` the
    subject stays on the ground.
    """

    name = "fall"
    periodic = False

    def __init__(self, period_s: float = 0.9, amplitude: float = 1.0) -> None:
        super().__init__(period_s, amplitude)

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        pivot = pose[_ANKLES].mean(axis=0)
        angle = phase * (math.pi / 2.0) * self.amplitude  # vertical -> horizontal
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
        return (pose - pivot) @ rotation.T + pivot


class Stand(MotionModel):
    """Idle standing with a barely-visible sway (the rest/background class)."""

    name = "stand"

    def _keypoints_at(self, phase: float) -> np.ndarray:
        pose = base_pose()
        sway = math.sin(2.0 * math.pi * phase) * 0.01 * self.amplitude
        pose[:, 0] += sway
        return pose


#: Every model, by label.
MODEL_BY_NAME = {
    cls.name: cls
    for cls in (Squat, JumpingJack, Lunge, LateralRaise, Wave, Clap, Fall, Stand)
}


def make_model(name: str, period_s: float = 2.0, amplitude: float = 1.0) -> MotionModel:
    """Instantiate a motion model by activity label."""
    try:
        cls = MODEL_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown motion {name!r}; known: {sorted(MODEL_BY_NAME)}")
    return cls(period_s=period_s, amplitude=amplitude)
