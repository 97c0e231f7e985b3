"""Integration: pipelines across unusual device mixes and the rendered
(pixel-carrying) path end to end."""

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
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
            done = home.device(kind).cpu.execute(0.010)
            home.kernel.run_until_resolved(done)
            times[kind] = home.now
        assert times["watch"] > times["desktop"] * 4


class TestRenderedPixelPath:
    def test_fitness_pipeline_with_real_pixels(self, fitness_recognizer):
        """render=True makes the camera draw real frames; the pose service's
        person detection then runs on actual pixels, and the JPEG codec
        genuinely quantizes the imagery between devices."""
        home = VideoPipe.paper_testbed(seed=11)
        services = install_fitness_services(home,
                                            recognizer=fitness_recognizer)
        app = FitnessApp(home, services)
        pipeline = app.deploy(
            fitness_pipeline_config(fps=5.0, duration_s=4.0, render=True)
        )
        home.run(until=5.0)
        assert services.sink.count >= 10
        for name in pipeline.module_names():
            assert pipeline.module(name).errors == [], name
        # the displayed overlays still recognized the activity from the
        # noisy, codec-degraded stream
        labelled = [f for f in services.sink.frames if f.label]
        assert labelled
        assert labelled[-1].label == "squat"
        # the Fig.-3-style skeleton overlay was actually burned into pixels
        composited = [f for f in services.sink.frames if f.composited is not None]
        assert composited
        assert (composited[-1].composited == 255).any()
