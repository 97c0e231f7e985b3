"""VideoPipe: building video stream processing pipelines at the edge.

A full reproduction of Salehe et al., *Middleware Industry '19*
(DOI 10.1145/3366626.3368131). The package builds the paper's whole stack:

* :mod:`repro.sim` — deterministic discrete-event kernel (plus a wall-clock
  realtime mode);
* :mod:`repro.net` — home Wi-Fi model, ZeroMQ-style brokerless transport,
  broker baseline, RPC;
* :mod:`repro.frames` / :mod:`repro.motion` / :mod:`repro.vision` — the
  synthetic camera, human motion models, and the paper's actual algorithms
  (17-keypoint pose, kNN activity recognition, k-means rep counting);
* :mod:`repro.devices` — heterogeneous device models (2018 flagship phone,
  desktop, 4K TV, ...);
* :mod:`repro.runtime` — the uniform FaaS-style module runtime (Table 1);
* :mod:`repro.services` — stateless container/native services with
  replicas, sharing and autoscaling;
* :mod:`repro.pipeline` — DAG configuration (Listing 1 syntax included),
  placement (co-located vs single-host baseline) and deployment;
* :mod:`repro.apps` — the fitness, gesture-control and fall-detection
  applications the paper evaluates.

Quickstart::

    from repro import VideoPipe
    from repro.apps import (FitnessApp, fitness_pipeline_config,
                            install_fitness_services)

    home = VideoPipe.paper_testbed(seed=7)
    services = install_fitness_services(home)
    app = FitnessApp(home, services)
    pipeline = app.deploy(fitness_pipeline_config(fps=20.0, duration_s=30.0))
    home.run(until=31.0)
    print(pipeline.metrics.throughput_fps(31.0, warmup_s=2.0), "fps")
"""

from .core import VideoPipe
from .errors import (
    AdmissionError,
    ConfigError,
    DeploymentError,
    DeviceError,
    FaultError,
    FrameStoreError,
    NetworkError,
    PlacementError,
    ReproError,
    ServiceError,
    SimulationError,
    StaleHandleError,
)
from .faults import ChaosInjector, FaultEvent, FaultPlan
from .liveops import CanaryPolicy, LineageRecorder, LiveOpsManager, ModuleUpgrade
from .pipeline import (
    DataPlaneConfig,
    ModuleConfig,
    Pipeline,
    PerfConfig,
    PipelineConfig,
    parse_pipeline_json,
    parse_pipeline_text,
)
from .runtime import Module, ModuleContext, ModuleEvent, register_module
from .services import Service, ServiceCallContext
from .slo import SLO, SLOConfig

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "CanaryPolicy",
    "ChaosInjector",
    "ConfigError",
    "DeploymentError",
    "DataPlaneConfig",
    "DeviceError",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "FrameStoreError",
    "LineageRecorder",
    "LiveOpsManager",
    "Module",
    "ModuleConfig",
    "ModuleContext",
    "ModuleEvent",
    "ModuleUpgrade",
    "NetworkError",
    "Pipeline",
    "PerfConfig",
    "PipelineConfig",
    "PlacementError",
    "ReproError",
    "SLO",
    "SLOConfig",
    "Service",
    "ServiceCallContext",
    "ServiceError",
    "SimulationError",
    "StaleHandleError",
    "VideoPipe",
    "__version__",
    "parse_pipeline_json",
    "parse_pipeline_text",
    "register_module",
]
