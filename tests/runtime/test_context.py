"""Unit tests for the module context API."""

import pytest

from repro.errors import ServiceError
from repro.frames import SyntheticCamera
from repro.motion import Squat
from repro.runtime.module import FunctionModule
from repro.services import FunctionService, LocalServiceStub, ServiceHost


def frame():
    return SyntheticCamera("phone", Squat()).capture(1, 0.0)


def deploy_with_ctx(home, name="m", device="phone", stubs=None, wiring=None,
                    addresses=None, next_modules=None, source=None):
    wiring = wiring or home.wiring(
        addresses or {name: (device, 5000)}, next_modules=next_modules, source=source
    )
    holder = {}
    home.runtimes[device].deploy(
        name,
        FunctionModule(lambda c, e: None, init_fn=lambda c: holder.update(ctx=c)),
        wiring.address_of(name),
        wiring,
        stubs or {},
    )
    return holder["ctx"], wiring


class TestIdentity:
    def test_basic_properties(self, home):
        ctx, wiring = deploy_with_ctx(home)
        assert ctx.module_name == "m"
        assert ctx.device_name == "phone"
        assert ctx.pipeline_name == "test"
        assert ctx.now == home.kernel.now
        assert ctx.metrics is wiring.metrics

    def test_rng_deterministic(self, home):
        ctx, _ = deploy_with_ctx(home)
        a = ctx.rng("noise").random(3)
        from .conftest import RuntimeHome

        other = RuntimeHome()
        ctx2, _ = deploy_with_ctx(other)
        assert list(a) == list(ctx2.rng("noise").random(3))


class TestServices:
    def make_stub(self, home, result=None):
        service = FunctionService("svc", lambda p, c: result or {"ok": True})
        host = ServiceHost(home.kernel, home.devices["phone"], service,
                           home.transport)
        return LocalServiceStub(host)

    def test_call_service_through_stub(self, home):
        stub = self.make_stub(home)
        ctx, wiring = deploy_with_ctx(home, stubs={"svc": stub})
        done = ctx.call_service("svc", {"q": 1})
        home.kernel.run()
        assert done.value == {"ok": True}
        assert wiring.metrics.counter("service_calls.svc") == 1

    def test_undeclared_service_rejected(self, home):
        ctx, _ = deploy_with_ctx(home)
        with pytest.raises(ServiceError, match="did not declare"):
            ctx.call_service("ghost", {})

    def test_service_introspection(self, home):
        stub = self.make_stub(home)
        ctx, _ = deploy_with_ctx(home, stubs={"svc": stub})
        assert ctx.has_service("svc")
        assert not ctx.has_service("ghost")
        assert ctx.service_is_local("svc")
        # a local call passes frames by reference: nothing to prepare, so
        # a load stage gains no preparation share from it
        assert stub.last_prepare_s == 0.0


class TestFrames:
    def test_store_get_release_cycle(self, home):
        ctx, _ = deploy_with_ctx(home)
        f = frame()
        ref = ctx.store_frame(f)
        assert ctx.get_frame(ref) is f
        ctx.add_ref(ref)
        ctx.release(ref)
        ctx.release(ref)
        assert not home.devices["phone"].frame_store.contains(ref)


class TestFanOut:
    def test_call_next_delivers_to_all_targets(self, home):
        got = []
        wiring = home.wiring(
            {"a": ("phone", 5000), "b": ("phone", 5001), "c": ("desktop", 5002)},
            next_modules={"a": ["b", "c"]},
        )
        ctx, _ = deploy_with_ctx(home, name="a", wiring=wiring)
        for name, dev in (("b", "phone"), ("c", "desktop")):
            home.runtimes[dev].deploy(
                name, FunctionModule(lambda c, e: got.append((c.module_name, e.payload))),
                wiring.address_of(name), wiring,
            )
        ref = ctx.store_frame(frame())
        ctx.call_next({"frame": ref, "n": 1})
        home.kernel.run()
        assert sorted(name for name, _ in got) == ["b", "c"]
        # fan-out balanced the holds: b's ref lives on phone, c's landed on
        # desktop, and nothing leaked
        assert len(home.devices["phone"].frame_store) == 1
        assert len(home.devices["desktop"].frame_store) == 1

    def test_call_next_without_downstream_is_noop(self, home):
        ctx, _ = deploy_with_ctx(home)
        assert ctx.call_next({"x": 1}) == []

    def test_next_modules_listed(self, home):
        wiring = home.wiring(
            {"a": ("phone", 5000), "b": ("phone", 5001)},
            next_modules={"a": ["b"]},
        )
        ctx, _ = deploy_with_ctx(home, name="a", wiring=wiring)
        assert ctx.next_modules == ["b"]


class TestSignalsAndLogs:
    def test_finish_without_source_is_none(self, home):
        ctx, wiring = deploy_with_ctx(home)
        ctx.frame_entered(1)
        assert ctx.finish(1) is None
        assert wiring.metrics.counter("frames_completed") == 1

    def test_log_records_time_and_module(self, home):
        ctx, wiring = deploy_with_ctx(home)
        ctx.log("hello")
        assert wiring.logs == [(0.0, "m", "hello")]

    def test_a_staged_handler_is_timed_by_the_runtime(self, home):
        """A module names its stage; the worker records the handler's
        start-to-end time under it, and the module times nothing."""

        class Staged(FunctionModule):
            stage = "pose"

        def handle(ctx, event):
            yield 0.05

        wiring = home.wiring({"a": ("phone", 5000), "m": ("phone", 5001)})
        sender, _ = deploy_with_ctx(home, name="a", wiring=wiring)
        home.runtimes["phone"].deploy("m", Staged(handle),
                                      wiring.address_of("m"), wiring)
        sender.call_module("m", {"n": 1})
        home.kernel.run()
        assert wiring.metrics.stage_means_ms() == {"pose": pytest.approx(50.0)}
