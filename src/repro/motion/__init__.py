"""Parametric human motion: skeletons, exercises and gestures.

This package replaces the live humans in front of the paper's camera with
deterministic, seedable motion models that drive the synthetic video source
and the recognizer training sets.
"""

from .exercises import MotionModel, Squat, make_model
from .multiview import (
    BODY_HEIGHT_M,
    BodyShape,
    CameraView,
    MultiViewScene,
    WorldActor,
    camera_from_dict,
    camera_to_dict,
    crossing_scene,
    random_scene,
)
from .skeleton import KEYPOINT_INDEX, NUM_KEYPOINTS, SKELETON_EDGES, Pose
from .trajectory import (
    SubjectParams,
    place_in_image,
    random_subject,
    sample_subject_sequence,
    subject_pose,
)

__all__ = [
    "BODY_HEIGHT_M",
    "BodyShape",
    "CameraView",
    "KEYPOINT_INDEX",
    "MotionModel",
    "MultiViewScene",
    "NUM_KEYPOINTS",
    "Pose",
    "SKELETON_EDGES",
    "Squat",
    "SubjectParams",
    "WorldActor",
    "camera_from_dict",
    "camera_to_dict",
    "crossing_scene",
    "make_model",
    "place_in_image",
    "random_scene",
    "random_subject",
    "sample_subject_sequence",
    "subject_pose",
]
