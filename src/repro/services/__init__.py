"""The stateless service framework: hosts, registry, stubs, autoscaling."""

from .balancer import (
    LEAST_LOADED,
    expected_service_time,
    host_is_live,
    select_host,
)
from .base import FunctionService, Service, ServiceCallContext
from .builtin.activity import ActivityClassifierService
from .builtin.display import DisplayService, DisplaySink
from .builtin.iot import IoTActuatorService, IoTDeviceFleet
from .builtin.objects import (
    FaceDetectionService,
    ImageClassificationService,
    ObjectDetectionService,
)
from .builtin.pose import PoseDetectorService
from .builtin.repcount import RepCounterService
from .builtin.tracker import ObjectTrackingService
from .host import ServiceHost
from .pool import PoolLease, ReplicaPool
from .registry import ServiceRegistry
from .scaling import AutoScaler, ScalingEvent, ScalingPolicy
from .stubs import (
    DEFAULT_SERVICE_RETRY,
    LocalServiceStub,
    RemoteServiceStub,
    ServiceStub,
    derive_service_timeout,
    make_stub,
)

__all__ = [
    "ActivityClassifierService",
    "AutoScaler",
    "DEFAULT_SERVICE_RETRY",
    "DisplayService",
    "DisplaySink",
    "FaceDetectionService",
    "FunctionService",
    "IoTActuatorService",
    "IoTDeviceFleet",
    "ImageClassificationService",
    "LEAST_LOADED",
    "LocalServiceStub",
    "ObjectDetectionService",
    "ObjectTrackingService",
    "PoolLease",
    "PoseDetectorService",
    "RemoteServiceStub",
    "ReplicaPool",
    "RepCounterService",
    "ScalingEvent",
    "ScalingPolicy",
    "Service",
    "ServiceCallContext",
    "ServiceHost",
    "ServiceRegistry",
    "ServiceStub",
    "derive_service_timeout",
    "expected_service_time",
    "host_is_live",
    "make_stub",
    "select_host",
]
