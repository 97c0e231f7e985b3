"""Adaptive micro-batching on the service host."""

import pytest

from repro.errors import ServiceError
from repro.services import FunctionService, Service, ServiceHost


class BatchEchoService(Service):
    """Echoes payloads; records every handle/handle_batch invocation."""

    name = "becho"
    reference_cost_s = 0.050
    max_batch = 4
    batch_marginal_cost_frac = 0.5

    def __init__(self):
        self.batch_sizes = []
        self.solo_calls = 0

    def handle(self, payload, ctx):
        self.solo_calls += 1
        if isinstance(payload, dict) and payload.get("poison"):
            raise RuntimeError("poisoned payload")
        return payload

    def handle_batch(self, payloads, ctx):
        if any(isinstance(p, dict) and p.get("poison") for p in payloads):
            raise RuntimeError("batch refused")  # forces per-item fallback
        self.batch_sizes.append(len(payloads))
        return list(payloads)


def batching_host(home, service=None, replicas=1, max_batch=4,
                  max_wait_s=0.004):
    service = service or BatchEchoService()
    host = ServiceHost(home.kernel, home.desktop, service, home.transport,
                       replicas=replicas)
    host.enable_batching(max_batch=max_batch, max_wait_s=max_wait_s)
    return host, service


class TestBatchFormation:
    def test_same_instant_arrivals_coalesce(self, home):
        """Two requests issued at the same simulated instant share one
        dispatch — the zero-delay flush, with no added latency."""
        host, service = batching_host(home)
        first = host.call_local({"i": 1})
        second = host.call_local({"i": 2})
        home.kernel.run()
        assert first.value == {"i": 1} and second.value == {"i": 2}
        assert service.batch_sizes == [2]
        assert host.batch_size_counts == {2: 1}
        # batch of 2 at 0.5 marginal cost ~= 1.5x solo, well under 2x serial
        assert home.kernel.now < 2 * 0.050

    def test_requests_accumulate_while_workers_busy(self, home):
        host, service = batching_host(home)
        host.call_local({"i": 0})  # takes the only worker solo
        home.kernel.schedule(0.010, lambda: host.call_local({"i": 1}))
        home.kernel.schedule(0.020, lambda: host.call_local({"i": 2}))
        home.kernel.run()
        assert sorted(service.batch_sizes) == [1, 2]
        assert host.avg_batch_size() == pytest.approx(1.5)
        assert host.batched_calls == 2

    def test_company_timer_batches_out_of_phase_arrivals(self, home):
        """A lone request at a free host waits up to max_wait_s for company
        instead of going out alone."""
        host, service = batching_host(home, max_wait_s=0.030)
        host.call_local({"i": 0})
        # lands while the worker is busy -> pending; on release the company
        # timer arms, and the next arrival falls into the window
        home.kernel.schedule(0.030, lambda: host.call_local({"i": 1}))
        home.kernel.schedule(0.060, lambda: host.call_local({"i": 2}))
        home.kernel.run()
        assert 2 in service.batch_sizes

    def test_dispatch_capped_at_max_batch(self, home):
        host, service = batching_host(home, max_batch=4)
        for i in range(5):
            host.call_local({"i": i})
        home.kernel.run()
        assert max(service.batch_sizes) == 4
        assert sum(service.batch_sizes) == 5

    def test_host_cap_bounded_by_service_cap(self, home):
        host, service = batching_host(home, max_batch=32)
        for i in range(6):
            host.call_local({"i": i})
        home.kernel.run()
        assert max(service.batch_sizes) == service.max_batch == 4

    def test_pending_requests_count_as_queued_load(self, home):
        host, _ = batching_host(home)
        host.call_local({"i": 0})
        home.kernel.run(until=0.010)  # worker busy with the solo dispatch
        host.call_local({"i": 1})
        assert host.queue_length == 1

    def test_parameter_validation(self, home):
        host, _ = batching_host(home)
        with pytest.raises(ServiceError):
            host.enable_batching(max_batch=0)
        with pytest.raises(ServiceError):
            host.enable_batching(max_wait_s=-1.0)


class TestBatchExecution:
    def test_batch_cost_amortized(self, home):
        """A batch of 4 at 0.5 marginal frac costs 2.5x solo, not 4x."""
        host, service = batching_host(home)
        dones = [host.call_local({"i": i}) for i in range(4)]
        home.kernel.run()
        assert all(d.succeeded for d in dones)
        assert service.batch_sizes == [4]
        assert home.kernel.now < 3.2 * 0.050  # serial would be >= 4x

    def test_poisoned_item_fails_alone(self, home):
        host, service = batching_host(home)
        good = host.call_local({"i": 1})
        bad = host.call_local({"poison": True})
        home.kernel.run()
        assert good.succeeded and good.value == {"i": 1}
        assert bad.failed and isinstance(bad.exception, ServiceError)
        assert host.errors == 1
        assert host.busy_workers == 0  # worker not leaked by the fallback

    @pytest.mark.parametrize("foreign", [False, True])
    def test_stale_ref_fails_alone(self, home, foreign):
        """A released (or another device's) FrameRef fails only its own
        call, exactly as the same two calls do unbatched; the rest of the
        batch still executes and is charged only for the items that run."""
        host, service = batching_host(home)
        store = (home.phone if foreign else home.desktop).frame_store
        ref = store.put(object())
        if not foreign:
            store.release(ref)
        good = host.call_local({"i": 1})
        bad = host.call_local({"frame": ref})
        home.kernel.run()
        assert good.succeeded and good.value == {"i": 1}
        assert bad.failed and isinstance(bad.exception, ServiceError)
        assert host.errors == 1
        assert host.batch_size_counts == {2: 1}  # one dispatch of two...
        assert service.batch_sizes == [1]        # ...of which one ran
        assert home.kernel.now < 1.2 * 0.050     # and one was paid for
        assert host.busy_workers == 0

    def test_batch_of_stale_refs_runs_nothing(self, home):
        host, service = batching_host(home)
        store = home.desktop.frame_store
        refs = [store.put(object()) for _ in range(2)]
        for ref in refs:
            store.release(ref)
        dones = [host.call_local({"frame": ref}) for ref in refs]
        home.kernel.run()
        assert all(d.failed for d in dones)
        assert host.errors == 2
        assert service.solo_calls == 0
        assert home.kernel.now == 0.0  # nothing ran, nothing was charged

    def test_whole_batch_failure_counts_every_failed_call(self, home):
        """A failure outside the per-item rule (here: the cost model
        raises) fails the whole dispatch; ``errors`` counts calls."""
        class Unpriceable(BatchEchoService):
            def compute_cost(self, payload):
                raise RuntimeError("no cost model")

        host, _ = batching_host(home, service=Unpriceable())
        dones = [host.call_local({"i": i}) for i in range(3)]
        home.kernel.run()
        assert all(d.failed for d in dones)
        assert host.errors == 3
        assert host.busy_workers == 0

    def test_failing_handler_in_a_batch_of_one_runs_once(self, home):
        """No per-item rerun without company: a lone poisoned request in a
        formed batch fails on its first and only execution."""
        class LoopingEcho(BatchEchoService):
            handle_batch = Service.handle_batch  # the default: loop handle

        host, service = batching_host(home, service=LoopingEcho())
        bad = host.call_local({"poison": True})
        home.kernel.run()
        assert bad.failed and "poisoned payload" in str(bad.exception)
        assert service.solo_calls == 1
        assert host.errors == 1 and host.busy_workers == 0

    def test_service_without_batch_support_never_batches(self, home):
        service = FunctionService("plain", lambda p, c: p,
                                  reference_cost_s=0.050)
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        host.enable_batching(max_batch=4)
        first = host.call_local({"i": 1})
        second = host.call_local({"i": 2})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        assert host.batched_calls == 0
        assert host.batch_wait_s == 0.0  # callers see no batching delay

    def test_crash_fails_pending_batch_requests(self, home):
        host, _ = batching_host(home)
        host.call_local({"i": 0})
        home.kernel.run(until=0.010)
        pending = host.call_local({"i": 1})  # accumulating behind the worker
        host.crash()
        home.kernel.run()
        assert pending.failed
        assert host.dropped_in_flight >= 1
        assert not host._batch_pending

    def test_a_crashed_batch_is_interrupted_once(self, home):
        """A crash stops an executing batch of four with one urgent event,
        not one per call (three of which found nothing left to do)."""
        host, _ = batching_host(home)
        calls = [host.call_local({"i": i}) for i in range(4)]
        home.kernel.run(until=0.001)
        assert len(set(host._inflight.values())) == 1  # one batch of four
        interrupts = []

        class Tap:
            def on_schedule(self, now, event):
                if event.callback.__qualname__ == "_Dispatch._interrupted":
                    interrupts.append(event)

            def on_execute(self, now, event):
                pass

        home.kernel.add_observer(Tap())
        host.crash()
        home.kernel.run()
        assert all(call.failed for call in calls)
        assert len(interrupts) == 1

    def test_close_fails_pending_batch_requests(self, home):
        host, _ = batching_host(home)
        host.call_local({"i": 0})
        home.kernel.run(until=0.010)
        pending = host.call_local({"i": 1})
        host.close()
        home.kernel.run()
        assert pending.failed


class TestBatchCostModel:
    def test_batch_compute_cost_shape(self):
        service = BatchEchoService()
        solo = service.compute_cost({})
        assert service.batch_compute_cost([]) == 0.0
        assert service.batch_compute_cost([{}]) == pytest.approx(solo)
        assert service.batch_compute_cost([{}] * 3) == pytest.approx(2.0 * solo)

    def test_amortized_item_cost_monotone(self):
        service = BatchEchoService()
        costs = [service.amortized_item_cost_s(n) for n in (1, 2, 4)]
        assert costs[0] == pytest.approx(service.reference_cost_s)
        assert costs[0] > costs[1] > costs[2]
        # clamped to the service's own max batch
        assert service.amortized_item_cost_s(64) == pytest.approx(costs[2])
