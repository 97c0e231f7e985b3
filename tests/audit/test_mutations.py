"""Mutation tests: re-introduce each fixed bug and prove the auditor trips.

Every test seeds one of the failure classes this PR (or an earlier one)
fixed — a frame-ref leak, a silently lost message, the pre-fix
overlapping-window autoscaler, a collector that stops pruning its
in-flight table — and asserts the auditor reports it with an actionable
diagnostic. If a regression reopens one of these holes, the REPRO_AUDIT
sweep fails even where no functional assertion notices.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.devices import Device
from repro.devices.catalog import desktop, flagship_phone_2018
from repro.metrics.collector import MetricsCollector
from repro.net import BrokerlessTransport, LinkSpec, Topology
from repro.net.address import Address
from repro.net.message import Message
from repro.net.rpc import RpcClient, RpcServer
from repro.services import FunctionService, ServiceHost
from repro.services.scaling import WINDOW, AutoScaler, ScalingPolicy
from repro.sim import Kernel, RngStreams


@pytest.fixture(autouse=True)
def _explicit_auditors_only(monkeypatch):
    """These tests *seed* violations; their auditors must be explicit so
    the REPRO_AUDIT sweep (which only asserts on env-enabled auditors)
    does not fail the test for finding exactly what it planted."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)


class MiniHome:
    """Two-device harness without the facade (mirrors tests/services)."""

    def __init__(self, seed=1):
        self.kernel = Kernel()
        self.rng = RngStreams(seed=seed)
        self.topology = Topology(self.kernel, self.rng)
        self.topology.add_wifi(
            "wifi",
            LinkSpec(latency_s=0.0012, jitter_cv=0.0, bandwidth_bps=120e6),
        )
        self.devices = {}
        for spec in (flagship_phone_2018(), desktop()):
            self.topology.attach(spec.name, "wifi")
            self.devices[spec.name] = Device(self.kernel, spec, self.rng)
        self.transport = BrokerlessTransport(self.kernel, self.topology)

    @property
    def desktop(self):
        return self.devices["desktop"]


class TestSeededRefcountLeak:
    def test_leak_is_caught_with_holder_attribution(self):
        home = VideoPipe(seed=3)
        home.enable_audit()
        home.add_device("phone")
        store = home.device("phone").frame_store
        store.put(b"the frame a buggy module never releases")
        home.run(until=1.0)
        violations = home.check_invariants()
        leaks = [v for v in violations
                 if v.invariant == "frame-ref-conservation"]
        assert len(leaks) == 1
        assert leaks[0].subject == "framestore/phone"
        # actionable: names the ref, its type, and how long it was held
        assert "#1 bytes x1" in leaks[0].detail
        assert "held since t=0.000s" in leaks[0].detail

    def test_clean_run_stays_clean(self):
        home = VideoPipe(seed=3)
        home.enable_audit()
        home.add_device("phone")
        store = home.device("phone").frame_store
        ref = store.put(b"balanced")
        store.release(ref)
        home.run(until=1.0)
        assert home.check_invariants() == []


class TestLostMessage:
    def _sender(self, home, count=5):
        received = []
        home.transport.bind(Address("desktop", 7000), received.append)

        def send_all():
            for n in range(count):
                home.transport.send(Message(
                    kind="data", dst=Address("desktop", 7000), payload=n,
                    src=Address("phone", 6000), size_bytes=1000,
                ))
                yield 0.05

        home.kernel.process(send_all())
        return received

    def test_silently_dropped_delivery_trips_conservation(self, monkeypatch):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        self._sender(home)

        original = BrokerlessTransport._deliver
        calls = {"n": 0}

        def lossy(self, message, done, exc):
            calls["n"] += 1
            if calls["n"] == 3:
                # the mutation: the arrival fires but delivery bookkeeping
                # vanishes — no handler call, no delivered/failed count
                self._pending_sends.pop(done, None)
                return
            original(self, message, done, exc)

        monkeypatch.setattr(BrokerlessTransport, "_deliver", lossy)
        home.kernel.run(until=2.0)

        violations = auditor.check_now()
        conservation = [v for v in violations
                        if v.invariant == "message-conservation"]
        assert conservation, auditor.report()
        # both sides of the cross-check fire: counters disagree, and the
        # auditor's mirror names the vanished message id
        details = " | ".join(v.detail for v in conservation)
        assert "vanished" in details
        assert "unsettled msg ids" in details

    def test_undropped_run_is_clean(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        received = self._sender(home)
        home.kernel.run(until=2.0)
        assert len(received) == 5
        assert auditor.check_quiesce() == []


class BuggyAutoScaler(AutoScaler):
    """The pre-fix sampler: a sliding window re-evaluated on every tick and
    no cooldown, so one sustained episode bursts replicas tick after tick."""

    def _sample(self, host):
        samples = self._samples[host]
        samples.append(host.queue_length)
        if len(samples) < WINDOW:
            return
        del samples[:-WINDOW]
        avg_queue = sum(samples) / len(samples)
        if (avg_queue >= self.policy.queue_threshold
                and host.replicas < self.policy.max_replicas):
            before = host.replicas
            host.add_replica(1)
            self._record(host, before, avg_queue, "scale_up")


class TestAutoscalerBurst:
    def _overload(self, home, host):
        def load():
            while home.kernel.now < 3.0:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())

    def test_prefix_burst_trips_pacing(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        service = FunctionService("busy", lambda p, c: p,
                                  reference_cost_s=0.100)
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=6)
        scaler = BuggyAutoScaler(home.kernel, policy)
        auditor.watch_autoscaler(scaler)
        scaler.watch(host)
        scaler.start()
        self._overload(home, host)
        home.kernel.run(until=2.0)
        scaler.stop()

        pacing = [v for v in auditor.violations
                  if v.invariant == "autoscaler-pacing"]
        assert pacing, "the replica burst went unnoticed"
        assert "inside the 1.000s cooldown" in pacing[0].detail
        assert pacing[0].subject == "autoscaler/busy@desktop"

    def test_fixed_autoscaler_is_clean(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        service = FunctionService("busy", lambda p, c: p,
                                  reference_cost_s=0.100)
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=6)
        scaler = AutoScaler(home.kernel, policy)
        auditor.watch_autoscaler(scaler)
        scaler.watch(host)
        scaler.start()
        self._overload(home, host)
        home.kernel.run(until=4.0)
        scaler.stop()
        assert scaler.events  # it did scale...
        assert auditor.violations == []  # ...at the documented pace


class LeakyCollector(MetricsCollector):
    """The PR-3 bug class: completion stops pruning ``_frame_started``."""

    def frame_completed(self, frame_id, now):
        self.completions.tick(now)
        self._counters["frames_completed"] += 1
        if self.auditor is not None:
            self.auditor.on_frame_completed(self, frame_id)


class TestCollectorLeak:
    def test_unpruned_in_flight_table_is_flagged(self):
        kernel = Kernel()
        auditor = InvariantAuditor(kernel)
        collector = LeakyCollector("leaky")
        auditor.watch_metrics(collector)
        collector.frame_entered(1, 0.0)
        collector.frame_completed(1, 0.5)
        violations = auditor.check_now()
        assert violations, "the in-flight leak went unnoticed"
        assert "not pruning" in violations[0].detail


class TestLostRpcReply:
    """``rpc-quiesce`` covers every client on a watched transport — nobody
    registers clients with the auditor."""

    def _calls(self, home, count=3):
        RpcServer(home.kernel, home.transport, Address("desktop", 7100),
                  lambda payload, _msg: payload)
        client = RpcClient(home.kernel, home.transport, "phone")
        results = [
            client.call(Address("desktop", 7100), n, timeout=1.0)
            for n in range(count)
        ]
        return client, results

    def test_swallowed_reply_and_timeout_names_the_client(self, monkeypatch):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        original = RpcClient._on_reply

        def lossy(self, message):
            if message.payload == 1:
                # the mutation: the reply is discarded and its timeout
                # timer dropped with it — the request can never settle
                self.kernel.cancel(self._timers.pop(message.headers["rpc_id"]))
                return
            original(self, message)

        monkeypatch.setattr(RpcClient, "_on_reply", lossy)
        client, results = self._calls(home)
        home.kernel.run()

        assert [r.pending for r in results] == [False, True, False]
        orphans = [v for v in auditor.check_quiesce()
                   if v.invariant == "rpc-quiesce"]
        assert len(orphans) == 1, auditor.report()
        assert orphans[0].subject == f"rpc/{client.reply_address}"
        assert "1 RPC request(s) still pending" in orphans[0].detail

    def test_unswallowed_run_is_clean_and_close_unlists_the_client(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        client, results = self._calls(home)
        home.kernel.run()
        assert [r.value for r in results] == [0, 1, 2]
        assert auditor.check_quiesce() == []
        assert home.transport.rpc_clients == [client]
        client.close()
        assert home.transport.rpc_clients == []
