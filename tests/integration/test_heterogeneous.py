"""Integration: pipelines across unusual device mixes."""

from repro.core import VideoPipe
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.services import FunctionService


class TestConstrainedDevices:
    def test_pipeline_spans_watch_fridge_and_laptop(self):
        """The §1 pitch: 'devices without containers can still contribute
        to the pipeline'. Source on a watch, sink on a fridge, compute on
        the only container-capable device."""
        home = VideoPipe(seed=9)
        home.add_device("watch")
        home.add_device("fridge")
        home.add_device("laptop")
        home.deploy_service(
            FunctionService("analyze", lambda p, c: {"n": p["n"] * 2},
                            reference_cost_s=0.020, default_port=7850),
            "laptop",
        )

        from repro.runtime import Module
        from repro.runtime.module import FunctionModule

        results = []

        class Source(Module):
            def init(self, ctx):
                def feed():
                    for n in range(20):
                        ctx.call_next({"n": n})
                        yield 0.1

                ctx._runtime.kernel.process(feed())

            def event_received(self, ctx, event):
                pass

        class Analyze(Module):
            def event_received(self, ctx, event):
                def flow():
                    out = yield ctx.call_service("analyze", event.payload)
                    ctx.call_next(out)

                return flow()

        config = PipelineConfig(
            name="appliances",
            modules=[
                ModuleConfig(name="src", include="./x.js", device="watch",
                             next_modules=["mid"], endpoint="bind#tcp://*:0"),
                ModuleConfig(name="mid", include="./x.js",
                             services=["analyze"], next_modules=["out"],
                             endpoint="bind#tcp://*:0"),
                ModuleConfig(name="out", include="./x.js", device="fridge",
                             endpoint="bind#tcp://*:0"),
            ],
        )
        pipeline = home.deploy_pipeline(
            config,
            default_device="watch",
            module_instances={
                "src": Source(),
                "mid": Analyze(),
                "out": FunctionModule(lambda c, e: results.append(e.payload)),
            },
        )
        assert pipeline.device_of("mid") == "laptop"  # followed the service
        home.run(until=5.0)
        assert [r["n"] for r in results] == [2 * n for n in range(20)]

    def test_slow_devices_actually_cost_more(self):
        """The same module work takes longer on a watch than a desktop."""
        times = {}
        for kind in ("watch", "desktop"):
            home = VideoPipe(seed=10)
            home.add_device(kind)
            done = home.kernel.signal()
            home.device(kind).cpu.execute(
                0.010, lambda duration, _exc: done.succeed(duration))
            home.kernel.run_until_resolved(done)
            times[kind] = home.now
        assert times["watch"] > times["desktop"] * 4
