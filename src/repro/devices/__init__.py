"""Heterogeneous edge devices: specs, presets, CPU model."""

from .catalog import CATALOG, make_spec
from .device import Device
from .spec import DeviceSpec

__all__ = [
    "CATALOG",
    "Device",
    "DeviceSpec",
    "make_spec",
]
