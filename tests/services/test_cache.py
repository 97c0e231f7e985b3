"""The host result cache: key derivation, LRU mechanics, call paths."""

import pytest

from repro.errors import ServiceError
from repro.frames import FrameStore
from repro.services import FunctionService, RemoteServiceStub, ServiceHost
from repro.services.cache import MISS, ResultCache, payload_cache_key
from repro.services.builtin.pose import PoseDetectorService

from .conftest import make_frame


class TestResultCache:
    def test_roundtrip_and_miss_sentinel(self):
        cache = ResultCache()
        assert cache.lookup("k") is MISS
        cache.store("k", {"reps": 3})
        assert cache.lookup("k") == {"reps": 3}
        assert cache.hits == 1 and cache.misses == 1

    def test_none_is_a_valid_cached_value(self):
        cache = ResultCache()
        cache.store("k", None)
        assert cache.lookup("k") is None

    def test_lru_eviction_respects_recency(self):
        cache = ResultCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")  # refresh a: b is now LRU
        cache.store("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_invalidate_all_and_by_prefix(self):
        cache = ResultCache()
        cache.store("pose:aa", 1)
        cache.store("pose:bb", 2)
        cache.store("reps:cc", 3)
        assert cache.invalidate(prefix="pose:") == 2
        assert "reps:cc" in cache
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.invalidations == 3

    def test_invalidate_bare_name_respects_the_key_boundary(self):
        """Regression: invalidating service ``"pose"`` used to match any
        key *starting with* ``pose`` — wiping ``pose_v2``'s entries too."""
        cache = ResultCache()
        cache.store("pose:aa", 1)
        cache.store("pose_v2:aa", 2)
        assert cache.invalidate(prefix="pose") == 1
        assert "pose_v2:aa" in cache
        assert "pose:aa" not in cache

    def test_invalidate_with_colon_matches_raw_for_digest_ranges(self):
        cache = ResultCache()
        cache.store("pose:ab12", 1)
        cache.store("pose:cd34", 2)
        assert cache.invalidate(prefix="pose:ab") == 1
        assert "pose:cd34" in cache

    def test_invalidations_counts_entries_removed_not_calls(self):
        cache = ResultCache()
        cache.store("pose:aa", 1)
        cache.store("pose:bb", 2)
        assert cache.invalidate(prefix="pose") == 2
        assert cache.invalidate(prefix="pose") == 0  # already empty
        assert cache.invalidate() == 0
        assert cache.invalidations == 2

    def test_hit_rate(self):
        cache = ResultCache()
        assert cache.hit_rate() == 0.0
        cache.store("k", 1)
        cache.lookup("k")
        cache.lookup("gone")
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_parameter_validation(self):
        with pytest.raises(ServiceError):
            ResultCache(max_entries=0)


class TestPayloadCacheKey:
    def test_key_is_stable_across_ref_ids(self):
        store = FrameStore("phone")
        ref_a = store.put(make_frame(frame_id=1, t=0.0))
        ref_b = store.put(make_frame(frame_id=2, t=1.0))
        assert ref_a.ref_id != ref_b.ref_id
        key_a = payload_cache_key("pose", {"frame": ref_a}, store=store)
        key_b = payload_cache_key("pose", {"frame": ref_b}, store=store)
        assert key_a is not None and key_a == key_b
        assert key_a.startswith("pose:")

    def test_params_are_part_of_the_key(self):
        store = FrameStore("phone")
        ref = store.put(make_frame())
        low = payload_cache_key("pose", {"frame": ref, "thresh": 0.3}, store=store)
        high = payload_cache_key("pose", {"frame": ref, "thresh": 0.9}, store=store)
        assert low != high

    def test_service_name_namespaces_keys(self):
        assert payload_cache_key("a", {"x": 1}) != payload_cache_key("b", {"x": 1})

    def test_uncacheable_payloads_get_no_key(self):
        store = FrameStore("phone")
        assert payload_cache_key("pose", {"x": object()}, store=store) is None
        # refs without a store, and foreign/released refs, are uncacheable
        ref = store.put(make_frame())
        assert payload_cache_key("pose", {"frame": ref}) is None
        store.release(ref)
        assert payload_cache_key("pose", {"frame": ref}, store=store) is None

    def test_foreign_ref_is_uncacheable_not_a_crash(self):
        """A ref minted by another device's store must degrade to
        'no key' (skip the cache) rather than raise inside the host."""
        phone_store = FrameStore("phone")
        desktop_store = FrameStore("desktop")
        foreign = phone_store.put(make_frame())
        assert payload_cache_key("pose", {"frame": foreign},
                                 store=desktop_store) is None
        # and a mixed payload with one bad leaf is uncacheable as a whole
        local = desktop_store.put(make_frame(frame_id=2))
        assert payload_cache_key(
            "pose", {"a": local, "b": foreign}, store=desktop_store) is None


def counting_service(calls, cacheable=True, cost=0.010):
    def fn(payload, ctx):
        calls.append(payload)
        return {"n": len(calls)}
    service = FunctionService("echo", fn, reference_cost_s=cost)
    service.cacheable = cacheable
    return service


class TestHostCaching:
    def test_local_hit_skips_execution_entirely(self, home):
        calls = []
        host = ServiceHost(home.kernel, home.desktop, counting_service(calls),
                           home.transport)
        host.enable_result_cache()
        first = host.call_local({"x": 1})
        home.kernel.run_until_resolved(first)
        elapsed = home.kernel.now
        second = host.call_local({"x": 1})
        assert second.succeeded  # resolved synchronously: no worker, no queue
        assert home.kernel.now == elapsed  # zero simulated time
        assert second.value == first.value
        assert len(calls) == 1
        assert host.cache_hits == 1 and host.cache_misses == 1
        assert host.cache_hit_rate() == pytest.approx(0.5)

    def test_different_payloads_do_not_collide(self, home):
        calls = []
        host = ServiceHost(home.kernel, home.desktop, counting_service(calls),
                           home.transport)
        host.enable_result_cache()
        host.call_local({"x": 1})
        host.call_local({"x": 2})
        home.kernel.run()
        assert len(calls) == 2

    def test_non_cacheable_service_is_never_cached(self, home):
        calls = []
        host = ServiceHost(home.kernel, home.desktop,
                           counting_service(calls, cacheable=False),
                           home.transport)
        host.enable_result_cache()
        host.call_local({"x": 1})
        host.call_local({"x": 1})
        home.kernel.run()
        assert len(calls) == 2
        assert host.cache_hits == host.cache_misses == 0

    def test_explicit_invalidation_forces_reexecution(self, home):
        calls = []
        host = ServiceHost(home.kernel, home.desktop, counting_service(calls),
                           home.transport)
        host.enable_result_cache()
        done = host.call_local({"x": 1})
        home.kernel.run_until_resolved(done)
        assert host.invalidate_cache() == 1
        host.call_local({"x": 1})
        home.kernel.run()
        assert len(calls) == 2

    def test_crash_invalidates_cache(self, home):
        calls = []
        host = ServiceHost(home.kernel, home.desktop, counting_service(calls),
                           home.transport)
        host.enable_result_cache()
        done = host.call_local({"x": 1})
        home.kernel.run_until_resolved(done)
        host.crash()
        host.restart()
        host.call_local({"x": 1})
        home.kernel.run()
        assert len(calls) == 2  # a restarted process may carry a new model

    def test_ref_payloads_hit_across_byte_identical_frames(self, home):
        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        host.enable_result_cache()
        store = home.desktop.frame_store
        ref_a = store.put(make_frame(frame_id=1, t=0.0))
        ref_b = store.put(make_frame(frame_id=2, t=1.0))
        first = host.call_local({"frame": ref_a})
        home.kernel.run_until_resolved(first)
        second = host.call_local({"frame": ref_b})
        assert second.succeeded
        assert host.cache_hits == 1

    def test_remote_hit_skips_decode_and_compute(self, home):
        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        host.enable_result_cache()
        stub = RemoteServiceStub(home.kernel, home.transport, home.phone, host)
        store = home.phone.frame_store
        first = stub.call({"frame": store.put(make_frame(frame_id=1, t=0.0))})
        home.kernel.run_until_resolved(first)
        primed_at = home.kernel.now
        second = stub.call({"frame": store.put(make_frame(frame_id=2, t=1.0))})
        home.kernel.run_until_resolved(second)
        assert host.cache_hits == 1
        # the repeat paid wire + marshal but neither decode nor inference
        assert home.kernel.now - primed_at < primed_at
        assert second.value["detected"] == first.value["detected"]
