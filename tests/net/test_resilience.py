"""Unit tests for retry/backoff, circuit breaking, and the resilient client.

Everything here is deterministic: the backoff schedule is exact without an
RNG and bounded with a seeded one, and the breaker is a pure state machine
driven with explicit clock values.
"""

import numpy as np
import pytest

from repro.errors import CircuitOpenError, RpcError
from repro.net import (
    Address,
    BrokerlessTransport,
    CircuitBreaker,
    CircuitBreakerPolicy,
    LinkSpec,
    RetryPolicy,
    RpcClient,
    RpcServer,
    Topology,
)
from repro.net.resilience import CLOSED, HALF_OPEN, OPEN
from repro.sim import Kernel, RngStreams


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def net(kernel):
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.0))
    for device in ["phone", "desktop"]:
        topo.attach(device, "wifi")
    return BrokerlessTransport(kernel, topo)


class TestRetryPolicy:
    def test_exact_schedule_without_jitter(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=10.0, jitter=0.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.4, 0.8]

    def test_delay_is_capped(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, multiplier=3.0,
                             max_delay_s=5.0, jitter=0.0)
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 3.0
        assert policy.backoff_s(3) == 5.0  # 9.0 capped
        assert policy.backoff_s(8) == 5.0

    def test_jitter_stays_within_relative_bounds(self):
        policy = RetryPolicy(base_delay_s=0.2, multiplier=2.0, jitter=0.25)
        rng = np.random.default_rng(7)
        for attempt in (1, 2, 3):
            nominal = 0.2 * 2.0 ** (attempt - 1)
            for _ in range(50):
                delay = policy.backoff_s(attempt, rng)
                assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_jittered_schedule_is_reproducible_per_seed(self):
        policy = RetryPolicy(jitter=0.3)
        a = [policy.backoff_s(i, np.random.default_rng(3)) for i in (1, 2, 3)]
        b = [policy.backoff_s(i, np.random.default_rng(3)) for i in (1, 2, 3)]
        assert a == b

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay_s=0.5, jitter=0.4)
        assert policy.backoff_s(1) == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay_s": -0.1},
        {"multiplier": 0.5},
        {"jitter": 1.0},
        {"jitter": -0.1},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


class TestCircuitBreaker:
    def make(self, threshold=3, reset=2.0):
        return CircuitBreaker(
            CircuitBreakerPolicy(failure_threshold=threshold,
                                 reset_timeout_s=reset))

    def test_trips_open_at_threshold(self):
        breaker = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure(now=0.0)
            assert breaker.state == CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_rejects_while_open(self):
        breaker = self.make(threshold=1, reset=5.0)
        breaker.record_failure(now=1.0)
        assert not breaker.allow(now=2.0)
        assert not breaker.allow(now=5.9)
        assert breaker.rejections == 2

    def test_half_open_admits_exactly_one_probe(self):
        breaker = self.make(threshold=1, reset=2.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.0)  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(now=2.0)  # a second concurrent call
        assert breaker.rejections == 1

    def test_probe_success_closes(self):
        breaker = self.make(threshold=1, reset=2.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.5)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.allow(now=2.5)

    def test_probe_failure_reopens_for_a_full_window(self):
        breaker = self.make(threshold=3, reset=2.0)
        for _ in range(3):
            breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.0)
        breaker.record_failure(now=2.0)  # a single half-open failure re-trips
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert not breaker.allow(now=3.9)
        assert breaker.allow(now=4.0)

    def test_probe_in_flight_blocks_callers_across_windows(self):
        """Regression guard: a slow probe holds the half-open slot — a
        second caller is rejected even after *another* reset window has
        elapsed with the probe still unresolved."""
        breaker = self.make(threshold=1, reset=2.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.0)  # the probe departs, never resolves
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(now=4.5)  # a whole extra window later
        assert not breaker.allow(now=40.0)
        assert breaker.rejections == 2

    def test_half_open_failure_rearms_from_the_failure_time(self):
        """The re-opened window is a full ``reset_timeout_s`` measured from
        when the probe *failed*, not from the original trip (or the probe's
        departure) — a slow-failing probe must not shorten the cooldown."""
        breaker = self.make(threshold=1, reset=2.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.0)  # probe departs...
        breaker.record_failure(now=3.5)  # ...and fails 1.5 s later
        assert breaker.state == OPEN
        # 0.0 + 2*reset and 2.0 + reset have both passed; 3.5 + reset has not
        assert not breaker.allow(now=4.0)
        assert not breaker.allow(now=5.4)
        assert breaker.allow(now=5.5)
        assert breaker.state == HALF_OPEN

    def test_success_resets_the_failure_streak(self):
        breaker = self.make(threshold=3)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == CLOSED


class TestClientRetries:
    def test_retry_succeeds_once_server_appears(self, kernel, net):
        """The target is unbound for the first attempts; binding it before
        the last retry turns the call into a success."""
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.1, multiplier=2.0,
                             jitter=0.0)
        client = RpcClient(kernel, net, "phone", retry=policy)
        result = client.call(Address("desktop", 6000), "hello")
        # attempts at ~0 and ~0.1 fail; bind before the ~0.3 attempt
        kernel.schedule(0.2, lambda: RpcServer(
            kernel, net, Address("desktop", 6000), lambda p, m: p.upper()))
        kernel.run()
        assert result.value == "HELLO"
        assert client.retries == 2
        assert client.calls_failed == 0

    def test_retries_exhausted_fails_the_call(self, kernel, net):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.05, jitter=0.0)
        client = RpcClient(kernel, net, "phone", retry=policy)
        result = client.call(Address("desktop", 6000), None)
        kernel.run()
        assert result.failed
        assert isinstance(result.exception, RpcError)
        assert client.retries == 2
        assert client.calls_failed == 1

    def test_remote_errors_are_not_retried(self, kernel, net):
        """A handler that ran and raised proves the target is alive;
        retrying the same input is pointless."""
        served = []

        def handler(payload, msg):
            served.append(payload)
            raise ValueError("bad input")

        RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(kernel, net, "phone",
                           retry=RetryPolicy(max_attempts=4, jitter=0.0))
        result = client.call(Address("desktop", 6000), "x")
        kernel.run()
        assert result.failed and result.exception.remote
        assert len(served) == 1
        assert client.retries == 0

    def test_per_call_retry_override_disables_client_default(self, kernel, net):
        client = RpcClient(
            kernel, net, "phone",
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.05, jitter=0.0))
        result = client.call(Address("desktop", 6000), None, retry=None)
        kernel.run()
        assert result.failed
        assert client.retries == 0

    def test_jittered_retry_schedule_is_seed_deterministic(self, kernel, net):
        def run(seed):
            k = Kernel()
            topo = Topology(k, RngStreams(seed=1))
            topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.0))
            topo.attach("phone", "wifi")
            topo.attach("desktop", "wifi")
            transport = BrokerlessTransport(k, topo)
            client = RpcClient(
                k, transport, "phone",
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.1,
                                  jitter=0.3),
                rng=np.random.default_rng(seed))
            result = client.call(Address("desktop", 6000), None)
            k.run()
            assert result.failed
            return k.now

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestTimeoutBookkeeping:
    def test_reply_cancels_the_timeout_timer(self, kernel, net):
        """Satellite fix: with the generous 30 s default timeout, a prompt
        reply must not leave a dead timer event stretching the run."""
        RpcServer(kernel, net, Address("desktop", 6000), lambda p, m: p)
        client = RpcClient(kernel, net, "phone")  # default 30 s timeout
        result = client.call(Address("desktop", 6000), "ping")
        end = kernel.run()
        assert result.value == "ping"
        assert end < 1.0  # the cancelled timer does not hold the clock
        assert client.timeouts == 0

    def test_late_reply_after_timeout_is_counted(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000),
                  lambda p, m: kernel.timeout(1.0, "slow"))
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None, timeout=0.2)
        kernel.run()
        assert result.failed
        assert "timed out" in str(result.exception)
        assert client.timeouts == 1
        assert client.late_replies == 1

    def test_timeout_is_retryable(self, kernel, net):
        """A timed-out attempt retries; the retry hits a now-fast server."""
        calls = {"n": 0}

        def handler(payload, msg):
            calls["n"] += 1
            if calls["n"] == 1:
                return kernel.timeout(5.0, "slow")  # first reply never lands
            return "fast"

        RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(
            kernel, net, "phone",
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.0))
        result = client.call(Address("desktop", 6000), None, timeout=0.3)
        kernel.run()
        assert result.value == "fast"
        assert client.retries == 1
        assert client.timeouts == 1


class TestClientCircuitBreaking:
    POLICY = CircuitBreakerPolicy(failure_threshold=2, reset_timeout_s=1.0)

    def test_circuit_opens_and_rejects_fast(self, kernel, net):
        client = RpcClient(kernel, net, "phone", breaker=self.POLICY)
        target = Address("desktop", 6000)
        for _ in range(2):
            client.call(target, None)
            kernel.run()
        breaker = client.breaker_for(target)
        assert breaker.opens == 1
        rejected = client.call(target, None)
        kernel.run()
        assert isinstance(rejected.exception, CircuitOpenError)
        assert breaker.rejections == 1
        assert client.calls_sent == 2  # the rejected call never hit the wire

    def test_half_open_probe_recovers_the_target(self, kernel, net):
        client = RpcClient(kernel, net, "phone", breaker=self.POLICY)
        target = Address("desktop", 6000)
        for _ in range(2):
            client.call(target, None)
            kernel.run()
        assert client.breaker_for(target).state == OPEN
        RpcServer(kernel, net, target, lambda p, m: "back")
        kernel.run(until=kernel.now + 1.1)  # past reset_timeout_s
        probe = client.call(target, None)
        kernel.run()
        assert probe.value == "back"
        assert client.breaker_for(target).state == CLOSED

    def test_breakers_are_per_target(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6001), lambda p, m: "ok")
        client = RpcClient(kernel, net, "phone", breaker=self.POLICY)
        for _ in range(2):
            client.call(Address("desktop", 6000), None)
            kernel.run()
        healthy = client.call(Address("desktop", 6001), None)
        kernel.run()
        assert healthy.value == "ok"  # the dead port's breaker is not shared

    def test_remote_errors_count_as_liveness(self, kernel, net):
        def handler(payload, msg):
            raise ValueError("flaky input")

        target = Address("desktop", 6000)
        RpcServer(kernel, net, target, handler)
        client = RpcClient(kernel, net, "phone", breaker=self.POLICY)
        for _ in range(5):
            client.call(target, None)
            kernel.run()
        assert client.breaker_for(target).opens == 0
        assert client.breaker_for(target).state == CLOSED


class TestClientClose:
    def test_close_is_idempotent_and_fails_inflight(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000),
                  lambda p, m: kernel.timeout(1.0, "slow"))
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None)
        kernel.run(until=0.1)
        client.close()
        client.close()
        end = kernel.run()  # delivers the scheduled failure callback
        assert result.failed
        assert "closed" in str(result.exception)
        assert end < 2.0  # the pending timeout timer was cancelled

    def test_call_after_close_fails_immediately(self, kernel, net):
        client = RpcClient(kernel, net, "phone")
        client.close()
        result = client.call(Address("desktop", 6000), None)
        kernel.run()
        assert result.failed
        assert "closed" in str(result.exception)
