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
from .dag import (
    build_graph,
    longest_path,
    sink_modules,
    topological_order,
    validate,
)
from .deployer import Deployer
from .optimizer import (
    OPTIMIZED,
    CloudPricing,
    CostModel,
    OnlineOptimizer,
    OptimizedCost,
    OptimizerConfig,
    PlacementCost,
    ReplanEvent,
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
    "PlacementCost",
    "ReplanEvent",
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
    "build_graph",
    "config_from_dict",
    "longest_path",
    "parse_pipeline_json",
    "parse_pipeline_text",
    "plan_colocated",
    "plan_single_host",
    "sink_modules",
    "topological_order",
    "validate",
]
