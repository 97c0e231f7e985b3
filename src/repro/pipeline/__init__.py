"""Pipeline configuration, validation, placement and deployment."""

from .config import (
    AuditConfig,
    DataPlaneConfig,
    ModuleConfig,
    PerfConfig,
    PipelineConfig,
    TraceConfig,
    config_from_dict,
)
from .dag import validate
from .deployer import Deployer
from .optimizer import (
    OPTIMIZED,
    CloudPricing,
    CostModel,
    OnlineOptimizer,
    OptimizedCost,
    OptimizerConfig,
    observed_module_seconds,
    plan_optimized,
)
from .parser import parse_pipeline_json, parse_pipeline_text
from .pipeline import Pipeline
from .placement import (
    COLOCATED,
    SINGLE_HOST,
    PlacementPlan,
    plan_colocated,
    plan_single_host,
)

__all__ = [
    "AuditConfig",
    "COLOCATED",
    "CloudPricing",
    "CostModel",
    "Deployer",
    "OPTIMIZED",
    "OnlineOptimizer",
    "OptimizedCost",
    "OptimizerConfig",
    "observed_module_seconds",
    "plan_optimized",
    "ModuleConfig",
    "Pipeline",
    "DataPlaneConfig",
    "PerfConfig",
    "PipelineConfig",
    "PlacementPlan",
    "SINGLE_HOST",
    "TraceConfig",
    "config_from_dict",
    "parse_pipeline_json",
    "parse_pipeline_text",
    "plan_colocated",
    "plan_single_host",
    "validate",
]
