"""Fleet-scale simulation: many homes, sharded kernels (``docs/FLEET.md``)."""

from .harness import (
    STRATEGIES,
    Fleet,
    FleetConfig,
    FleetReport,
    HomeResult,
    aggregate_report,
    home_seed,
    run_fleet,
)
from .shard import FleetShardRunner, shard_assignment
from .workload import install_cloud_services

__all__ = [
    "Fleet",
    "FleetConfig",
    "FleetReport",
    "FleetShardRunner",
    "HomeResult",
    "STRATEGIES",
    "aggregate_report",
    "home_seed",
    "install_cloud_services",
    "run_fleet",
    "shard_assignment",
]
