"""Shared runtime fixtures: two devices with module runtimes."""

import pytest

from repro.devices import Device
from repro.devices.catalog import desktop, flagship_phone_2018
from repro.metrics import MetricsCollector
from repro.net import Address, BrokerlessTransport, LinkSpec, Topology
from repro.runtime import ModuleRuntime, PipelineWiring
from repro.sim import Kernel, RngStreams


class RuntimeHome:
    def __init__(self, seed=1):
        self.kernel = Kernel()
        self.rng = RngStreams(seed=seed)
        self.topology = Topology(self.kernel, self.rng)
        self.topology.add_wifi(
            "wifi", LinkSpec(latency_s=0.0012, jitter_cv=0.0, bandwidth_bps=120e6)
        )
        self.devices = {}
        self.runtimes = {}
        self.transport = None
        for spec in (flagship_phone_2018(), desktop()):
            self.topology.attach(spec.name, "wifi")
            device = Device(self.kernel, spec, self.rng)
            self.devices[spec.name] = device
        self.transport = BrokerlessTransport(self.kernel, self.topology)
        for name, device in self.devices.items():
            self.runtimes[name] = ModuleRuntime(self.kernel, device, self.transport)

    def wiring(self, addresses, next_modules=None, source=None):
        wiring = PipelineWiring("test", metrics=MetricsCollector("test"))
        wiring.addresses = {
            name: Address(dev, port) for name, (dev, port) in addresses.items()
        }
        wiring.next_modules = next_modules or {}
        wiring.source_module = source
        return wiring


@pytest.fixture
def home():
    return RuntimeHome()
