"""Pipelines whose modules can be stranded on a dead device.

The home is the trap home of ``tests/pipeline/test_optimizer.py``
(:func:`stage_home`): a phone and two container-capable devices, a slow
``alpha`` and a fast ``zeta``, each serving ``heavy``. Each pipeline
(:func:`stage_pipeline`) is camera on the phone → stage calling ``heavy`` →
sink; the co-located plan puts stage and sink on ``alpha``. A stage is
evacuated only to a container-capable device, so while ``alpha`` and
``zeta`` are both dead it has nowhere to go and stays stranded.
"""

from __future__ import annotations

from repro.core import VideoPipe
from repro.pipeline import COLOCATED
from repro.pipeline.config import ModuleConfig, PipelineConfig

from ..pipeline.test_optimizer import _trap_home as stage_home

__all__ = ["stage_home", "stage_pipeline"]


def stage_pipeline(home: VideoPipe, name: str):
    config = PipelineConfig(name=name, modules=[
        ModuleConfig(name=f"{name}_camera", include="./VideoStreamingModule.js",
                     device="phone", next_modules=[f"{name}_stage"],
                     params={"fps": 8.0, "duration_s": 4.0}),
        ModuleConfig(name=f"{name}_stage", include="./FleetStageModule.js",
                     services=["heavy"], next_modules=[f"{name}_sink"],
                     params={"service": "heavy", "stage": "stage"}),
        ModuleConfig(name=f"{name}_sink", include="./FleetSinkModule.js"),
    ])
    pipeline = home.deploy_pipeline(config, strategy=COLOCATED,
                                    default_device="phone")
    assert pipeline.device_of(f"{name}_stage") == "alpha"
    assert pipeline.device_of(f"{name}_sink") == "alpha"
    return pipeline
