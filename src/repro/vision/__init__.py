"""Vision algorithms: pose estimation, recognition, detection, tracking."""

from .activity import ActivityRecognizer
from .bbox import BBox
from .datasets import generate_activity_dataset, generate_rep_bouts
from .features import WINDOW_FRAMES, window_feature
from .kmeans import KMeans
from .knn import KNNClassifier
from .object_detector import (
    COLOR_CLASSES,
    ColorHistogramClassifier,
    Detection,
    ObjectDetector,
    SceneObject,
    detect_face_region,
    render_scene,
)
from .pose_estimator import PoseEstimator, PoseNoiseModel
from .reid import (
    SceneFusionCore,
    associate_tracklets,
    fusion_accuracy,
    pose_embedding,
)
from .repcounter import DEBOUNCE_FRAMES, RepCounter
from .tracking import IoUTracker, Track

__all__ = [
    "ActivityRecognizer",
    "BBox",
    "COLOR_CLASSES",
    "ColorHistogramClassifier",
    "DEBOUNCE_FRAMES",
    "Detection",
    "IoUTracker",
    "KMeans",
    "KNNClassifier",
    "ObjectDetector",
    "PoseEstimator",
    "PoseNoiseModel",
    "RepCounter",
    "SceneFusionCore",
    "SceneObject",
    "Track",
    "WINDOW_FRAMES",
    "associate_tracklets",
    "detect_face_region",
    "fusion_accuracy",
    "generate_activity_dataset",
    "generate_rep_bouts",
    "pose_embedding",
    "render_scene",
    "window_feature",
]
