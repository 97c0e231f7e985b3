"""Unit tests for replica/host selection."""

import pytest

from repro.core import VideoPipe
from repro.devices import DeviceSpec
from repro.errors import ServiceError
from repro.services import (
    LEAST_LOADED,
    FunctionService,
    RemoteServiceStub,
    ServiceRegistry,
    expected_service_time,
    make_stub,
    select_host,
)
from repro.services.balancer import FASTEST


@pytest.fixture
def multi_home():
    """'svc' hosted on a slow laptop ('athena') and a fast desktop ('zeus'),
    with a separate caller device."""
    home = VideoPipe(seed=0)
    home.add_device(DeviceSpec(name="athena", kind="laptop", cpu_factor=4.0,
                               cores=4, supports_containers=True))
    home.add_device(DeviceSpec(name="zeus", kind="desktop", cpu_factor=1.0,
                               cores=8, supports_containers=True))
    home.add_device(DeviceSpec(name="caller", kind="phone", cpu_factor=2.5,
                               cores=8))
    for device in ("athena", "zeus"):
        home.deploy_service(
            FunctionService("svc", lambda p, c: p, reference_cost_s=0.040,
                            default_port=7700),
            device,
        )
    return home


class TestSelectHost:
    def test_fastest_picks_quick_device(self, multi_home):
        host = select_host(multi_home.registry, "svc", policy=FASTEST)
        assert host.device.name == "zeus"

    def test_expected_service_time_scales(self, multi_home):
        times = {
            h.device.name: expected_service_time(h)
            for h in multi_home.registry.hosts_of("svc")
        }
        assert times["athena"] == pytest.approx(0.160)
        assert times["zeus"] == pytest.approx(0.040)

    def test_least_loaded_prefers_idle_replica(self, multi_home):
        zeus_host = multi_home.registry.host_on("svc", "zeus")
        # saturate zeus with queued calls
        for _ in range(5):
            zeus_host.call_local({})
        multi_home.kernel.run(until=0.001)  # let requests take workers
        host = select_host(multi_home.registry, "svc", policy=LEAST_LOADED)
        assert host.device.name == "athena"

    def test_unknown_service_rejected(self):
        with pytest.raises(ServiceError):
            select_host(ServiceRegistry(), "ghost")

    def test_unknown_policy_rejected(self, multi_home):
        with pytest.raises(ServiceError):
            select_host(multi_home.registry, "svc", policy="random")


class TestTieBreaking:
    @pytest.fixture
    def twin_home(self):
        """'svc' on two identical desktops, registered beta-before-alpha."""
        home = VideoPipe(seed=0)
        for name in ("beta", "alpha"):
            home.add_device(DeviceSpec(name=name, kind="desktop",
                                       cpu_factor=1.0, cores=8,
                                       supports_containers=True))
            home.deploy_service(
                FunctionService("svc", lambda p, c: p, reference_cost_s=0.040,
                                default_port=7700),
                name,
            )
        return home

    def test_fastest_ties_break_by_device_name(self, twin_home):
        host = select_host(twin_home.registry, "svc", policy=FASTEST)
        assert host.device.name == "alpha"  # not registration order

    def test_least_loaded_ties_break_by_device_name(self, twin_home):
        host = select_host(twin_home.registry, "svc", policy=LEAST_LOADED)
        assert host.device.name == "alpha"

    def test_tie_break_is_stable_across_calls(self, twin_home):
        picks = {
            select_host(twin_home.registry, "svc", policy=FASTEST).device.name
            for _ in range(5)
        }
        assert picks == {"alpha"}


class BatchySvc(FunctionService):
    max_batch = 4
    batch_marginal_cost_frac = 0.5


class TestBatchAwareEstimate:
    @pytest.fixture
    def batchy_host(self):
        home = VideoPipe(seed=0)
        home.add_device(DeviceSpec(name="zeus", kind="desktop", cpu_factor=1.0,
                                   cores=8, supports_containers=True))
        return home.deploy_service(
            BatchySvc("svc", lambda p, c: p, reference_cost_s=0.040,
                      default_port=7700),
            "zeus",
        )

    def test_unbatched_host_reproduces_plain_estimate(self, batchy_host):
        assert expected_service_time(batchy_host) == pytest.approx(0.040)

    def test_observed_batch_size_shrinks_estimate(self, batchy_host):
        batchy_host.batch_size_counts[2] += 10  # as if it had batched
        est = expected_service_time(batchy_host)
        # a steady batch of 2 at 0.5 marginal frac: 0.75x per item
        assert est == pytest.approx(0.040 * 0.75)

    def test_hypothetical_batch_size_overrides_observed(self, batchy_host):
        assert expected_service_time(batchy_host, batch_size=4) < \
            expected_service_time(batchy_host, batch_size=2) < \
            expected_service_time(batchy_host, batch_size=1)
        assert expected_service_time(batchy_host, batch_size=1) == \
            pytest.approx(0.040)

    def test_estimate_clamped_to_service_max_batch(self, batchy_host):
        assert expected_service_time(batchy_host, batch_size=100) == \
            pytest.approx(expected_service_time(batchy_host, batch_size=4))


class TestMakeStubBalancing:
    def test_remote_stub_dials_fastest_by_default(self, multi_home):
        caller = multi_home.device("caller")
        stub = make_stub(multi_home.kernel, multi_home._get_transport(),
                         multi_home.registry, caller, "svc")
        assert isinstance(stub, RemoteServiceStub)
        assert stub.target_address.device == "zeus"

    def test_local_still_preferred_over_fast_remote(self, multi_home):
        # host the service on the caller too: locality beats speed
        caller = multi_home.device("caller")
        multi_home.deploy_service(
            FunctionService("svc", lambda p, c: p, reference_cost_s=0.040,
                            default_port=7700),
            "caller", native=True,
        )
        stub = make_stub(multi_home.kernel, multi_home._get_transport(),
                         multi_home.registry, caller, "svc")
        assert stub.is_local
