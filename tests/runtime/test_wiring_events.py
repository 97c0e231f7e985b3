"""Unit tests for pipeline wiring and module events."""

import pytest

from repro.errors import DeploymentError
from repro.metrics import MetricsCollector
from repro.net import Address
from repro.runtime import DATA, READY_SIGNAL, ModuleEvent, PipelineWiring


class TestPipelineWiring:
    def make(self):
        wiring = PipelineWiring("p", metrics=MetricsCollector("p"))
        wiring.addresses = {
            "a": Address("phone", 5000),
            "b": Address("desktop", 5001),
        }
        wiring.next_modules = {"a": ["b"], "b": []}
        wiring.source_module = "a"
        return wiring

    def test_address_lookup(self):
        wiring = self.make()
        assert wiring.address_of("a") == Address("phone", 5000)
        assert wiring.device_of("b") == "desktop"

    def test_unknown_module_raises_with_candidates(self):
        wiring = self.make()
        with pytest.raises(DeploymentError, match="known: \\['a', 'b'\\]"):
            wiring.address_of("ghost")

    def test_downstream_is_a_copy(self):
        wiring = self.make()
        downstream = wiring.downstream_of("a")
        downstream.append("evil")
        assert wiring.downstream_of("a") == ["b"]

    def test_downstream_of_unknown_is_empty(self):
        assert self.make().downstream_of("ghost") == []


class TestModuleEvent:
    def test_queueing_delay(self):
        event = ModuleEvent(kind=DATA, enqueued_at=1.0)
        event.dequeued_at = 1.25
        assert event.queueing_delay == pytest.approx(0.25)

    def test_kinds(self):
        assert DATA == "data"
        assert READY_SIGNAL == "ready"

    def test_default_fields(self):
        event = ModuleEvent(kind=DATA)
        assert event.payload is None
        assert event.headers == {}
        assert event.source_module is None
