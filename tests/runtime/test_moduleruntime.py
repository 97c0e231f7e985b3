"""Unit tests for the per-device module runtime."""

import pytest

from repro.errors import DeploymentError
from repro.frames import FrameRef, SyntheticCamera, encode_frame
from repro.motion import Squat
from repro.runtime import DATA, READY_SIGNAL, Module
from repro.runtime.module import FunctionModule


def frame():
    return SyntheticCamera("phone", Squat()).capture(1, 0.0)


class TestDeployment:
    def test_deploy_calls_init(self, home):
        initialized = []
        module = FunctionModule(lambda ctx, e: None,
                                init_fn=lambda ctx: initialized.append(ctx.module_name))
        wiring = home.wiring({"m": ("phone", 5000)})
        home.runtimes["phone"].deploy("m", module, wiring.address_of("m"), wiring)
        assert initialized == ["m"]

    def test_deploy_wrong_device_rejected(self, home):
        wiring = home.wiring({"m": ("desktop", 5000)})
        with pytest.raises(DeploymentError):
            home.runtimes["phone"].deploy(
                "m", FunctionModule(lambda c, e: None), wiring.address_of("m"), wiring
            )

    def test_duplicate_name_rejected(self, home):
        wiring = home.wiring({"m": ("phone", 5000)})
        runtime = home.runtimes["phone"]
        runtime.deploy("m", FunctionModule(lambda c, e: None),
                       wiring.address_of("m"), wiring)
        with pytest.raises(DeploymentError):
            runtime.deploy("m", FunctionModule(lambda c, e: None),
                           wiring.address_of("m"), wiring)

    def test_undeploy_frees_address(self, home):
        wiring = home.wiring({"m": ("phone", 5000)})
        runtime = home.runtimes["phone"]
        runtime.deploy("m", FunctionModule(lambda c, e: None),
                       wiring.address_of("m"), wiring)
        runtime.undeploy("m")
        assert runtime.deployed_names() == []
        runtime.deploy("m", FunctionModule(lambda c, e: None),
                       wiring.address_of("m"), wiring)  # rebind works

    def test_deployed_lookup(self, home):
        wiring = home.wiring({"m": ("phone", 5000)})
        runtime = home.runtimes["phone"]
        deployed = runtime.deploy("m", FunctionModule(lambda c, e: None),
                                  wiring.address_of("m"), wiring)
        assert runtime.deployed("m") is deployed
        with pytest.raises(DeploymentError):
            runtime.deployed("ghost")


class TestEventDelivery:
    def deploy_pair(self, home, receiver_fn, src_dev="phone", dst_dev="desktop"):
        wiring = home.wiring(
            {"a": (src_dev, 5000), "b": (dst_dev, 5001)},
            next_modules={"a": ["b"], "b": []},
        )
        sender_ctx = {}

        def sender(ctx, event):
            sender_ctx["ctx"] = ctx

        runtime_a = home.runtimes[src_dev]
        runtime_b = home.runtimes[dst_dev]
        a = runtime_a.deploy("a", FunctionModule(sender, init_fn=lambda c: sender_ctx.setdefault("ctx", c)),
                             wiring.address_of("a"), wiring)
        b = runtime_b.deploy("b", FunctionModule(receiver_fn),
                             wiring.address_of("b"), wiring)
        return sender_ctx, a, b

    def test_same_device_payload_passes_by_reference(self, home):
        got = []
        sender_ctx, a, b = self.deploy_pair(home, lambda ctx, e: got.append(e),
                                            dst_dev="phone")
        ctx = sender_ctx["ctx"]
        ref = ctx.store_frame(frame())
        ctx.call_module("b", {"frame": ref})
        home.kernel.run()
        assert got[0].payload["frame"] == ref  # still a ref, same store
        assert home.devices["phone"].frame_store.contains(ref)

    def test_cross_device_frame_rematerialized(self, home):
        got = []
        sender_ctx, a, b = self.deploy_pair(home, lambda ctx, e: got.append(e))
        ctx = sender_ctx["ctx"]
        ref = ctx.store_frame(frame())
        ctx.call_module("b", {"frame": ref})
        home.kernel.run()
        landed = got[0].payload["frame"]
        assert landed.device == "desktop"  # new local ref on arrival
        assert home.devices["desktop"].frame_store.contains(landed)
        # ownership moved: the phone-side hold was released
        assert not home.devices["phone"].frame_store.contains(ref)

    @pytest.mark.parametrize("arena", [False, True], ids=["store", "arena"])
    def test_same_device_encoded_frame_still_lands(self, home, arena):
        """Landing is skipped only when the size walk proved a payload holds
        no encoded frame, never for being local: an EncodedFrame sent on a
        same-device hop arrives as a local ref to its frame, and its decode
        is charged to the device's CPU. An arena hop is sized without a
        walk, so it lands too."""
        phone = home.devices["phone"]
        if arena:
            phone.enable_arena()
        got = []
        sender_ctx, a, b = self.deploy_pair(
            home, lambda ctx, e: got.append(e.payload["frame"]),
            dst_dev="phone")
        b.module.event_overhead_s = 0.0  # the decode is the one CPU job
        encoded = encode_frame(frame())
        sender_ctx["ctx"].call_module("b", {"frame": encoded, "frame_id": 1})
        home.kernel.run()
        (landed,) = got
        assert isinstance(landed, FrameRef) and landed.device == "phone"
        assert phone.frame_store.get(landed) is encoded.frame
        # one CPU job, drawn around the frame's decode cost (the draw jitters)
        assert phone.cpu.jobs_completed == 1
        assert list(phone.cpu._jitter) == [encoded.decode_cost_s]

    def test_cross_device_transfer_takes_network_time(self, home):
        got = []
        sender_ctx, a, b = self.deploy_pair(home, lambda ctx, e: got.append(ctx.now))
        ctx = sender_ctx["ctx"]
        ref = ctx.store_frame(frame())
        ctx.call_module("b", {"frame": ref})
        home.kernel.run()
        assert got[0] > 0.005  # encode + 2 wifi hops + decode

    def test_generator_handlers_serialize_per_module(self, home):
        """A module is a single-threaded context: event N+1 waits for the
        generator of event N to finish."""
        order = []

        def slow_handler(ctx, event):
            def flow():
                order.append(("start", event.payload))
                yield 0.050
                order.append(("end", event.payload))

            return flow()

        sender_ctx, a, b = self.deploy_pair(home, slow_handler)
        ctx = sender_ctx["ctx"]
        ctx.call_module("b", {"n": 1})
        ctx.call_module("b", {"n": 2})
        home.kernel.run()
        assert order == [
            ("start", {"n": 1}), ("end", {"n": 1}),
            ("start", {"n": 2}), ("end", {"n": 2}),
        ]

    def test_handler_crash_recorded_not_fatal(self, home):
        def bad(ctx, event):
            raise RuntimeError("module bug")

        sender_ctx, a, b = self.deploy_pair(home, bad)
        ctx = sender_ctx["ctx"]
        ctx.call_module("b", {"n": 1})
        ctx.call_module("b", {"n": 2})
        home.kernel.run()
        assert len(b.errors) == 2
        assert b.events_processed == 2  # runtime kept going
        assert b.ctx.metrics.counter("module_errors") == 2

    def test_ready_signal_routes_to_hook(self, home):
        signals = []

        class Source(Module):
            def event_received(self, ctx, event):
                pass

            def on_ready_signal(self, ctx, event):
                signals.append(ctx.now)

        wiring = home.wiring(
            {"src": ("phone", 5000), "sink": ("desktop", 5001)},
            next_modules={"src": ["sink"]},
            source="src",
        )
        home.runtimes["phone"].deploy("src", Source(), wiring.address_of("src"), wiring)
        sink_ctx = {}
        home.runtimes["desktop"].deploy(
            "sink",
            FunctionModule(lambda c, e: None, init_fn=lambda c: sink_ctx.update(ctx=c)),
            wiring.address_of("sink"),
            wiring,
        )
        wiring.metrics.frame_entered(1, 0.0)
        sink_ctx["ctx"].finish(1)
        assert sink_ctx["ctx"].finish(1) is None  # a frame ends once
        home.kernel.run()
        assert len(signals) == 1
        assert wiring.metrics.counter("ready_signals") == 1

    def test_event_kind_survives_transport(self, home):
        kinds = []
        sender_ctx, a, b = self.deploy_pair(home, lambda ctx, e: kinds.append(e.kind))
        sender_ctx["ctx"].call_module("b", {"x": 1})
        home.kernel.run()
        assert kinds == [DATA]

    def test_send_to_unknown_module_raises(self, home):
        sender_ctx, a, b = self.deploy_pair(home, lambda ctx, e: None)
        with pytest.raises(Exception):
            sender_ctx["ctx"].call_module("ghost", {})

    def test_mailbox_depth_tracked(self, home):
        def slow_handler(ctx, event):
            def flow():
                yield 1.0

            return flow()

        sender_ctx, a, b = self.deploy_pair(home, slow_handler, dst_dev="phone")
        ctx = sender_ctx["ctx"]
        for i in range(5):
            ctx.call_module("b", {"n": i})
        home.kernel.run()
        assert b.max_mailbox_depth >= 3


class TestRemoteSendThatDies:
    """The remote arm's signal *is* the shipping process's ``done``: a send
    whose process dies fails its signal instead of leaving it pending."""

    def test_a_stale_ref_fails_the_send_and_dead_letters_the_frame_once(self, home):
        """``encode_refs_for_wire`` raises on the released ref inside the
        shipping process. The hand-made completion signal used to stay
        pending forever (anything yielding the send hung) and the frame was
        never accounted."""
        from repro.errors import StaleHandleError

        wiring = home.wiring({"a": ("phone", 5000), "b": ("desktop", 5001)},
                             next_modules={"a": ["b"], "b": []})
        got = []
        home.runtimes["desktop"].deploy(
            "b", FunctionModule(lambda ctx, e: got.append(e)),
            wiring.address_of("b"), wiring)
        store = home.devices["phone"].frame_store
        ref = store.put(frame())
        wiring.metrics.frame_entered(1, home.kernel.now)
        store.release(ref)

        sent = home.runtimes["phone"].send_to_module(
            "a", "b", {"frame_id": 1, "ref": ref}, {}, wiring=wiring)
        outcomes = []

        def caller():
            try:
                yield sent
            except StaleHandleError as error:
                outcomes.append(error)

        home.kernel.process(caller())
        home.kernel.run(until=5.0)
        assert sent.failed and isinstance(sent.exception, StaleHandleError)
        assert outcomes == [sent.exception] and got == []
        counters = wiring.metrics.counters()
        assert counters["dead_letters"] == 1
        assert counters["frames_dropped"] == counters["frames_dropped.dead_letter"] == 1
        assert not wiring.metrics.frame_in_flight(1)
