"""Unit tests for the CPU model and Device."""

import pytest

from repro.devices import Device, DeviceSpec
from repro.devices.cpu import Cpu
from repro.devices.catalog import desktop, smart_tv_4k
from repro.errors import DeviceError
from repro.sim import Kernel, RngStreams

from ..outcomes import Outcome


@pytest.fixture
def kernel():
    return Kernel()


def make_cpu(kernel, factor=1.0, cores=2, jitter=0.0):
    spec = DeviceSpec(name="dev", cpu_factor=factor, cores=cores,
                      compute_jitter_cv=jitter)
    return Cpu(kernel, spec, RngStreams(seed=1).stream("cpu"))


class TestCpu:
    def test_job_takes_scaled_time(self, kernel):
        cpu = make_cpu(kernel, factor=2.5)
        done = Outcome(kernel)
        cpu.execute(0.040, done)
        kernel.run()
        assert done.value == pytest.approx(0.100)
        assert kernel.now == pytest.approx(0.100)

    def test_fixed_jobs_ignore_cpu_factor(self, kernel):
        cpu = make_cpu(kernel, factor=2.5)
        done = Outcome(kernel)
        cpu.execute_fixed(0.040, done)
        kernel.run()
        assert done.value == pytest.approx(0.040)

    def test_zero_cost_jobs_complete_instantly(self, kernel):
        cpu = make_cpu(kernel)
        done = Outcome(kernel)
        cpu.execute(0.0, done)
        kernel.run()
        assert done.value == 0.0

    def test_contention_queues_beyond_cores(self, kernel):
        cpu = make_cpu(kernel, cores=2)
        jobs = [Outcome(kernel) for _ in range(4)]
        for job in jobs:
            cpu.execute(1.0, job)
        kernel.run()
        assert all(job.value == 1.0 for job in jobs)
        # 4 one-second jobs on 2 cores = 2 seconds
        assert kernel.now == pytest.approx(2.0)

    def test_jitter_varies_durations(self, kernel):
        cpu = make_cpu(kernel, cores=100, jitter=0.2)
        jobs = [Outcome(kernel) for _ in range(50)]
        for job in jobs:
            cpu.execute(0.05, job)
        kernel.run()
        durations = {j.value for j in jobs}
        assert len(durations) > 40

    def test_bound_arguments_reach_the_continuation(self, kernel):
        cpu = make_cpu(kernel, factor=2.0)
        done = Outcome(kernel)
        cpu.execute(0.25, done, "job", 7)
        kernel.run()
        assert done.calls == [(0.5, None, 0.5, ("job", 7))]

    def test_stats(self, kernel):
        cpu = make_cpu(kernel)
        cpu.execute(0.5, Outcome(kernel))
        cpu.execute(0.25, Outcome(kernel))
        kernel.run()
        assert cpu.jobs_completed == 2
        assert cpu.busy_seconds == pytest.approx(0.75)


class TestDevice:
    def test_device_wiring(self, kernel):
        device = Device(kernel, desktop(), RngStreams(seed=0))
        assert device.name == "desktop"
        assert device.supports_containers
        assert device.frame_store.device == "desktop"

    def test_local_rng_is_deterministic_per_purpose(self, kernel):
        a = Device(kernel, desktop(), RngStreams(seed=0)).local_rng("x").random(3)
        b = Device(Kernel(), desktop(), RngStreams(seed=0)).local_rng("x").random(3)
        assert list(a) == list(b)

    def test_container_service_rejected_on_tv(self, kernel):
        device = Device(kernel, smart_tv_4k(), RngStreams(seed=0))

        class FakeHost:
            service_name = "pose"

        with pytest.raises(DeviceError, match="cannot run containers"):
            device.register_service_host(FakeHost())

    def test_native_service_allowed_anywhere(self, kernel):
        device = Device(kernel, smart_tv_4k(), RngStreams(seed=0))

        class FakeHost:
            service_name = "display"

        device.register_native_service_host(FakeHost())
        assert device.has_service("display")

    def test_duplicate_service_rejected(self, kernel):
        device = Device(kernel, desktop(), RngStreams(seed=0))

        class FakeHost:
            service_name = "pose"

        device.register_service_host(FakeHost())
        with pytest.raises(DeviceError, match="already hosted"):
            device.register_service_host(FakeHost())
