"""Unit tests for the service registry and stub selection."""

import pytest

from repro.errors import ServiceError
from repro.services import (
    FunctionService,
    LocalServiceStub,
    RemoteServiceStub,
    ServiceHost,
    ServiceRegistry,
    make_stub,
)


def host_on(home, device, name="svc", port=7100):
    service = FunctionService(name, lambda p, c: p, default_port=port)
    return ServiceHost(home.kernel, home.devices[device], service, home.transport)


class TestRegistry:
    def test_register_and_query(self, home):
        registry = ServiceRegistry()
        host = host_on(home, "desktop")
        registry.register(host)
        assert "svc" in registry
        assert registry.service_names() == ["svc"]
        assert registry.devices_hosting("svc") == ["desktop"]
        assert registry.any_host("svc") is host

    def test_duplicate_registration_rejected(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        with pytest.raises(ServiceError):
            registry.register(host_on(home, "desktop", port=7101))

    def test_same_service_on_two_devices(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        registry.register(host_on(home, "phone", port=7101))
        assert sorted(registry.devices_hosting("svc")) == ["desktop", "phone"]
        assert registry.host_on("svc", "phone").device.name == "phone"

    def test_missing_service_queries(self, home):
        registry = ServiceRegistry()
        assert registry.host_on("nope", "desktop") is None
        with pytest.raises(ServiceError):
            registry.any_host("nope")
        with pytest.raises(ServiceError):
            registry.address_of("nope")

    def test_address_of_specific_device(self, home):
        registry = ServiceRegistry()
        host = host_on(home, "desktop")
        registry.register(host)
        assert registry.address_of("svc", "desktop") == host.address
        with pytest.raises(ServiceError):
            registry.address_of("svc", "phone")

    def test_unregister(self, home):
        registry = ServiceRegistry()
        host = host_on(home, "desktop")
        registry.register(host)
        registry.unregister(host)
        assert "svc" not in registry


class TestMakeStub:
    def test_colocated_caller_gets_local_stub(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        stub = make_stub(home.kernel, home.transport, registry,
                         home.desktop, "svc")
        assert isinstance(stub, LocalServiceStub)
        assert stub.is_local

    def test_remote_caller_gets_remote_stub(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        stub = make_stub(home.kernel, home.transport, registry,
                         home.phone, "svc")
        assert isinstance(stub, RemoteServiceStub)
        assert not stub.is_local

    def test_prefer_local_false_forces_remote(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        stub = make_stub(home.kernel, home.transport, registry,
                         home.desktop, "svc", prefer_local=False)
        assert isinstance(stub, RemoteServiceStub)

    def test_unknown_service_raises(self, home):
        registry = ServiceRegistry()
        with pytest.raises(ServiceError):
            make_stub(home.kernel, home.transport, registry, home.phone, "nope")

    def test_stub_roundtrip_local_and_remote(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        local = make_stub(home.kernel, home.transport, registry,
                          home.desktop, "svc")
        remote = make_stub(home.kernel, home.transport, registry,
                           home.phone, "svc")
        r1 = local.call({"v": 1})
        r2 = remote.call({"v": 2})
        home.kernel.run()
        assert r1.value == {"v": 1}
        assert r2.value == {"v": 2}
        assert local.calls == 1 and remote.calls == 1


class TestRemoteCallThatFails:
    """``RemoteServiceStub.call`` returns the call process's own ``done``:
    a failure escapes the generator as the wrapped ``ServiceError``."""

    def remote_stub(self, home):
        registry = ServiceRegistry()
        registry.register(host_on(home, "desktop"))
        return make_stub(home.kernel, home.transport, registry, home.phone, "svc")

    def test_transport_failure_arrives_wrapped_with_its_cause(self, home):
        from repro.errors import CircuitOpenError
        from repro.metrics import MetricsCollector
        from repro.runtime import ModuleRuntime, PipelineWiring
        from repro.runtime.context import ModuleContext

        stub = self.remote_stub(home)
        stub.registry = None  # no replica to fail over to
        breaker = stub._client.breaker_for(stub.target_address)
        for _ in range(breaker.policy.failure_threshold):
            breaker.record_failure(home.kernel.now)
        wiring = PipelineWiring("t", metrics=MetricsCollector("t"))
        runtime = ModuleRuntime(home.kernel, home.phone, home.transport)
        ctx = ModuleContext(runtime, "m", wiring, {"svc": stub})

        result = ctx.call_service("svc", {"v": 1})
        caught = []

        def caller():
            try:
                yield result
            except ServiceError as error:
                caught.append(error)

        home.kernel.process(caller())
        home.kernel.run()
        assert result.failed and caught == [result.exception]
        assert "svc remote call failed" in str(caught[0])
        assert isinstance(caught[0].__cause__, CircuitOpenError)
        assert wiring.metrics.counter("service_rejections") == 1

    def test_a_service_error_is_not_wrapped_twice(self, home):
        stub = self.remote_stub(home)

        def refuses(*args, **kwargs):
            raise ServiceError("refused as is")

        stub._client.call = refuses
        result = stub.call({"v": 1})
        home.kernel.run()
        assert result.failed and str(result.exception) == "refused as is"
        assert result.exception.__cause__ is None
