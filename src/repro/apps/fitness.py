"""The fitness application (§4.1) — the paper's primary evaluation workload.

"A workout guidance system that tracks the progress of users' fitness
routine … the user places their smartphone on a phone cradle mounted on the
TV … renders the output on the living room TV display."

:func:`install_fitness_services` puts the services where Fig. 4 shows them
(pose + activity in containers on the desktop; rep counter + display native
on the TV); :func:`fitness_pipeline_config` is Listing 1's DAG;
:class:`FitnessApp` bundles deployment for both the VideoPipe and baseline
architectures.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modules  # noqa: F401 - ensure module includes are registered
from ..core.videopipe import VideoPipe
from ..pipeline.config import ModuleConfig, PipelineConfig
from ..pipeline.pipeline import Pipeline
from ..pipeline.placement import COLOCATED, SINGLE_HOST
from ..services.builtin.activity import ActivityClassifierService
from ..services.builtin.display import DisplayService, DisplaySink
from ..services.builtin.pose import PoseDetectorService
from ..services.builtin.repcount import RepCounterService
from ..vision.activity import ActivityRecognizer
from ..vision.datasets import generate_activity_dataset
from ..vision.pose_estimator import PoseNoiseModel

#: Activities the fitness recognizer is trained on.
FITNESS_ACTIVITIES = ("squat", "jumping_jack", "lunge", "lateral_raise", "stand")


def train_activity_recognizer(
    activities: tuple[str, ...] = FITNESS_ACTIVITIES,
    seed: int = 0,
    train_subjects: int = 5,
) -> ActivityRecognizer:
    """Train the kNN activity model on synthetic recording sessions."""
    dataset = generate_activity_dataset(
        activities=activities,
        train_subjects=train_subjects,
        test_subjects=1,
        duration_s=6.0,
        seed=seed,
    )
    return ActivityRecognizer(k=5).fit(dataset.train_windows, dataset.train_labels)


@dataclass(slots=True)
class FitnessServices:
    """Handles to the installed fitness services."""

    pose: PoseDetectorService
    activity: ActivityClassifierService
    rep: RepCounterService
    display: DisplayService

    @property
    def sink(self) -> DisplaySink:
        return self.display.sink


def install_fitness_services(
    home: VideoPipe,
    recognizer: ActivityRecognizer | None = None,
    pose_noise: PoseNoiseModel | None = None,
    compute_device: str = "desktop",
    display_device: str = "tv",
    pose_replicas: int = 1,
    baseline_layout: bool = False,
) -> FitnessServices:
    """Install the four fitness services.

    Default layout is Fig. 4: containers (pose, activity) on
    *compute_device*; native services (rep counter, display) on
    *display_device*. ``baseline_layout=True`` reproduces Fig. 5 instead:
    **all** services on the one remote server (*compute_device*).
    """
    recognizer = recognizer or train_activity_recognizer()
    services = FitnessServices(
        pose=PoseDetectorService(pose_noise),
        activity=ActivityClassifierService(recognizer),
        rep=RepCounterService(),
        display=DisplayService(DisplaySink()),
    )
    home.deploy_service(services.pose, compute_device, replicas=pose_replicas)
    home.deploy_service(services.activity, compute_device)
    if baseline_layout:
        home.deploy_service(services.rep, compute_device, native=True)
        home.deploy_service(services.display, compute_device, native=True)
    else:
        home.deploy_service(services.rep, display_device, native=True)
        home.deploy_service(services.display, display_device, native=True)
    return services


def fitness_pipeline_config(
    name: str = "fitness",
    fps: float = 10.0,
    duration_s: float | None = None,
    motion: str = "squat",
    mode: str = "signal",
    base_port: int = 5860,
    source_device: str = "phone",
    static_scene: bool = False,
) -> PipelineConfig:
    """The Listing-1 DAG: streaming → pose → activity → {reps, display}."""
    return PipelineConfig(
        name=name,
        modules=[
            ModuleConfig(
                name="video_streaming_module",
                include="./VideoStreamingModule.js",
                endpoint=f"bind#tcp://*:{base_port}",
                next_modules=["pose_detector_module"],
                device=source_device,  # the camera is physically on the phone
                params={
                    "fps": fps,
                    "motion": motion,
                    "duration_s": duration_s,
                    "mode": mode,
                    "static_scene": static_scene,
                },
            ),
            ModuleConfig(
                name="pose_detector_module",
                include="./PoseDetectorModule.js",
                services=["pose_detector"],
                endpoint=f"bind#tcp://*:{base_port + 1}",
                next_modules=["activity_detector_module"],
            ),
            ModuleConfig(
                name="activity_detector_module",
                include="./ActivityDetectorModule.js",
                services=["activity_classifier"],
                endpoint=f"bind#tcp://*:{base_port + 2}",
                next_modules=["rep_counter_module", "display_module"],
            ),
            ModuleConfig(
                name="rep_counter_module",
                include="./RepCounterModule.js",
                services=["rep_counter"],
                endpoint=f"bind#tcp://*:{base_port + 3}",
                next_modules=["display_module"],
            ),
            ModuleConfig(
                name="display_module",
                include="./DisplayModule.js",
                services=["display"],
                endpoint=f"bind#tcp://*:{base_port + 4}",
                next_modules=[],
            ),
        ],
        source="video_streaming_module",
    )


#: The paper's Listing 1, extended with the source and display entries the
#: listing elides ("Some details elided to simplify presentation").
FITNESS_LISTING = """
// An Example of DAG Configuration for a Pipeline (paper Listing 1)
modules : [
    { name: video_streaming_module
      include ("./VideoStreamingModule.js")
      endpoint: ["bind#tcp://*:5860"]
      next_module: pose_detector_module }
    { name: pose_detector_module
      include ("./PoseDetectorModule.js")
      service: ['pose_detector']
      endpoint: ["bind#tcp://*:5861"]
      next_module: activity_detector_module }
    { name: activity_detector_module
      include ("./ActivityDetectorModule.js")
      service: ['activity_classifier']
      endpoint: ["bind#tcp://*:5862"]
      next_module: [rep_counter_module,
                    display_module] }
    { name: rep_counter_module
      include ("./RepCounterModule.js")
      service: ['rep_counter']
      endpoint: ["bind#tcp://*:5863"]
      next_module: display_module }
    { name: display_module
      include ("./DisplayModule.js")
      service: ['display']
      endpoint: ["bind#tcp://*:5864"]
      next_module: [] }
]
"""


class FitnessApp:
    """Deploy-and-measure wrapper around the fitness pipeline."""

    def __init__(
        self,
        home: VideoPipe,
        services: FitnessServices,
        architecture: str = "videopipe",
        app_device: str = "phone",
    ) -> None:
        if architecture not in ("videopipe", "baseline"):
            raise ValueError(f"unknown architecture {architecture!r}")
        self.home = home
        self.services = services
        self.architecture = architecture
        self.app_device = app_device
        self.pipeline: Pipeline | None = None

    def deploy(self, config: PipelineConfig) -> Pipeline:
        """Deploy with the architecture's placement:

        * ``videopipe``: co-located modules (Fig. 4);
        * ``baseline``: all modules on the app device, remote API calls to
          every service (Fig. 5 / EdgeEye).
        """
        if self.architecture == "videopipe":
            self.pipeline = self.home.deploy_pipeline(
                config, strategy=COLOCATED, default_device=self.app_device
            )
        else:
            self.pipeline = self.home.deploy_pipeline(
                config,
                strategy=SINGLE_HOST,
                host_device=self.app_device,
                prefer_local_services=False,
            )
        return self.pipeline
