"""The uniform module runtime: Table 1's interface on every device."""

from .context import ModuleContext
from .events import DATA, READY_SIGNAL, ModuleEvent
from .module import Module
from .moduleruntime import DeployedModule, ModuleRuntime
from .registry import create_module, register_module, registered_modules
from .wiring import PipelineWiring

__all__ = [
    "DATA",
    "DeployedModule",
    "Module",
    "ModuleContext",
    "ModuleEvent",
    "ModuleRuntime",
    "PipelineWiring",
    "READY_SIGNAL",
    "create_module",
    "register_module",
    "registered_modules",
]
