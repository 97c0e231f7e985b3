"""The paper's applications, built on the public VideoPipe API."""

from . import modules  # noqa: F401 - registers the module includes
from .falldetect import fall_pipeline_config
from .fitness import (
    FITNESS_LISTING,
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
    train_activity_recognizer,
)
from .gesture import (
    gesture_pipeline_config,
    install_gesture_services,
    train_gesture_recognizer,
)
from .scene import scene_pipeline_config
from .scenefusion import (
    SceneFusionModule,
    SceneRigModule,
    SceneTrackModule,
    install_scene_services,
    multi_camera_pipeline_config,
)

__all__ = [
    "FITNESS_LISTING",
    "FitnessApp",
    "SceneFusionModule",
    "SceneRigModule",
    "SceneTrackModule",
    "fall_pipeline_config",
    "scene_pipeline_config",
    "fitness_pipeline_config",
    "gesture_pipeline_config",
    "install_fitness_services",
    "install_gesture_services",
    "install_scene_services",
    "multi_camera_pipeline_config",
    "train_activity_recognizer",
    "train_gesture_recognizer",
]
