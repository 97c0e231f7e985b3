#!/usr/bin/env python3
"""Building your own pipeline: custom modules, custom services, Listing-1
configuration text, and the realtime execution mode.

Shows the full developer workflow the paper describes in §3: write module
code against the Table-1 interface, declare the DAG in the configuration
dialect, and let VideoPipe place and wire everything.

Run:  python examples/custom_pipeline.py
"""

from repro import Module, VideoPipe, parse_pipeline_text, register_module
from repro.services import FunctionService


# --- 1. module code (the "JavaScript files" of the paper) -------------------

@register_module("./TickerModule.js")
class TickerModule(Module):
    """A source that emits one numbered message per interval."""

    def __init__(self, count=10, interval_s=0.2):
        self.count = count
        self.interval_s = interval_s

    def init(self, ctx):
        kernel = ctx._runtime.kernel

        def ticker():
            for n in range(self.count):
                ctx.call_next({"n": n, "sent_at": ctx.now})
                yield self.interval_s

        kernel.process(ticker(), name="ticker")

    def event_received(self, ctx, event):
        pass


@register_module("./SquarerModule.js")
class SquarerModule(Module):
    """Calls the 'squarer' service (wherever it lives) and forwards."""

    def event_received(self, ctx, event):
        def flow():
            result = yield ctx.call_service("squarer", event.payload["n"])
            out = dict(event.payload, squared=result)
            local = "locally" if ctx.service_is_local("squarer") else "remotely"
            ctx.log(f"squared {event.payload['n']} {local}")
            ctx.call_next(out)

        return flow()


@register_module("./PrinterModule.js")
class PrinterModule(Module):
    """The sink: collects results (a stand-in for a display)."""

    def __init__(self):
        self.results = []

    def event_received(self, ctx, event):
        latency_ms = (ctx.now - event.payload["sent_at"]) * 1e3
        self.results.append((event.payload["n"], event.payload["squared"],
                             latency_ms))


# --- 2. the pipeline configuration (the paper's Listing-1 dialect) ----------

CONFIG_TEXT = """
// ticker on the watch, squarer next to its service, printer on the TV
modules : [
    { name: ticker_module
      include ("./TickerModule.js")
      endpoint: ["bind#tcp://*:5950"]
      next_module: squarer_module }
    { name: squarer_module
      include ("./SquarerModule.js")
      service: ['squarer']
      endpoint: ["bind#tcp://*:5951"]
      next_module: printer_module }
    { name: printer_module
      include ("./PrinterModule.js")
      endpoint: ["bind#tcp://*:5952"]
      next_module: [] }
]
"""


# --- 3. a home with an unusual device mix -----------------------------------

def build(seed=42, name="custom", realtime=False):
    """A home with an unusual device mix running the configuration above:
    (home, pipeline). A *realtime* home is paced against the wall clock,
    at 5x real time."""
    home = VideoPipe(seed=seed, realtime=realtime, speed=5.0)
    home.add_device("watch")  # very constrained: modules only
    home.add_device("laptop")  # container-capable
    home.add_device("fridge")  # constrained appliance

    home.deploy_service(
        FunctionService("squarer", lambda n, ctx: n * n,
                        reference_cost_s=0.005, default_port=7400),
        "laptop",
    )

    config = parse_pipeline_text(CONFIG_TEXT, name=name)
    config.module("ticker_module").device = "watch"
    config.module("printer_module").device = "fridge"
    return home, home.deploy_pipeline(config, default_device="watch")


def main() -> None:
    home, pipeline = build()
    print("placement (co-location moved the squarer next to its service):")
    for name in pipeline.module_names():
        print(f"  {name:18s} -> {pipeline.device_of(name)}")

    home.run(until=5.0)

    printer = pipeline.module_instance("printer_module")
    print(f"\nresults ({len(printer.results)} messages):")
    for n, squared, latency_ms in printer.results:
        print(f"  {n}^2 = {squared:3d}   end-to-end {latency_ms:5.1f} ms")

    print("\nmodule log lines:")
    for at, module, text in pipeline.wiring.logs[:3]:
        print(f"  [{at:5.2f}s] {module}: {text}")

    # --- 4. the same system, paced against the wall clock -------------------
    print("\nrealtime mode (2 wall-seconds of live execution) ...")
    live, live_pipeline = build(name="custom-live", realtime=True)
    live.run(until=2.0)  # ~0.4 wall-seconds at speed 5
    live_printer = live_pipeline.module_instance("printer_module")
    print(f"realtime run delivered {len(live_printer.results)} messages"
          " while synchronized to the wall clock")


if __name__ == "__main__":
    main()
