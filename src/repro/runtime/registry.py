"""Module class registry.

The paper's configuration references module code by file
(``include("./PoseDetectorModule.js")``); here modules are registered
Python classes looked up by include-name, so configurations stay
declarative text.
"""

from __future__ import annotations

from typing import Callable, Type

from ..errors import ConfigError
from .module import Module

_REGISTRY: dict[str, Type[Module]] = {}


def register_module(include_name: str) -> Callable[[Type[Module]], Type[Module]]:
    """Class decorator: make a module class loadable by configuration.

    Example::

        @register_module("./PoseDetectorModule.js")
        class PoseDetectorModule(Module): ...
    """

    def decorator(cls: Type[Module]) -> Type[Module]:
        if not issubclass(cls, Module):
            raise ConfigError(f"{cls.__name__} is not a Module subclass")
        existing = _REGISTRY.get(include_name)
        if existing is not None and existing is not cls:
            raise ConfigError(f"include name {include_name!r} already registered")
        _REGISTRY[include_name] = cls
        return cls

    return decorator


def create_module(include_name: str, **kwargs) -> Module:
    """Instantiate the module class registered under *include_name*."""
    cls = _REGISTRY.get(include_name)
    if cls is None:
        raise ConfigError(
            f"no module registered for include {include_name!r};"
            f" known: {sorted(_REGISTRY)}"
        )
    return cls(**kwargs)


def registered_modules() -> dict[str, Type[Module]]:
    """A copy of the registry (inspection/testing)."""
    return dict(_REGISTRY)

