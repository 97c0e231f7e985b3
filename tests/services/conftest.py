"""Shared fixtures: a small home with a phone and a desktop."""

import numpy as np
import pytest

from repro.devices import Device
from repro.devices.catalog import desktop, flagship_phone_2018
from repro.frames import VideoFrame
from repro.net import BrokerlessTransport, LinkSpec, Topology
from repro.sim import Kernel, RngStreams


def make_frame(frame_id=1, t=0.0, fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=t,
                      width=32, height=24, pixels=pixels)


class MiniHome:
    """Bare two-device testbed without the full VideoPipe facade."""

    def __init__(self, seed=1, wifi=None):
        self.kernel = Kernel()
        self.rng = RngStreams(seed=seed)
        self.topology = Topology(self.kernel, self.rng)
        self.topology.add_wifi(
            "wifi", wifi or LinkSpec(latency_s=0.0012, jitter_cv=0.0, bandwidth_bps=120e6)
        )
        self.devices = {}
        for spec in (flagship_phone_2018(), desktop()):
            self.topology.attach(spec.name, "wifi")
            self.devices[spec.name] = Device(self.kernel, spec, self.rng)
        self.transport = BrokerlessTransport(self.kernel, self.topology)

    @property
    def phone(self):
        return self.devices["phone"]

    @property
    def desktop(self):
        return self.devices["desktop"]


@pytest.fixture
def home():
    return MiniHome()
