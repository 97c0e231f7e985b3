"""Unit tests for deterministic named RNG streams."""

from functools import partial

import numpy as np
import pytest

from repro.devices import DeviceSpec
from repro.devices.cpu import Cpu
from repro.frames import FrameStore
from repro.net.link import Link, LinkSpec
from repro.services import ServiceCallContext
from repro.sim import Kernel, RngStreams, lognormal_around
from repro.sim.rng import lognormal_params

from ..outcomes import Outcome


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_same_seed_and_name_reproduce_draws(self):
        first = RngStreams(seed=42).stream("link/wifi").random(5)
        second = RngStreams(seed=42).stream("link/wifi").random(5)
        np.testing.assert_array_equal(first, second)

    def test_different_names_are_independent(self):
        streams = RngStreams(seed=42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").random(5)
        b = RngStreams(seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_adding_streams_does_not_perturb_existing(self):
        plain = RngStreams(seed=7)
        expected = plain.stream("svc/pose").random(3)

        noisy = RngStreams(seed=7)
        noisy.stream("svc/other").random(100)  # extra stream created first
        actual = noisy.stream("svc/pose").random(3)
        np.testing.assert_array_equal(expected, actual)

    def test_scoped_rng_namespaces(self):
        root = RngStreams(seed=3)
        scope = root.spawn("deviceA")
        direct = RngStreams(seed=3).stream("deviceA/cpu").random(4)
        np.testing.assert_array_equal(scope.stream("cpu").random(4), direct)

    def test_nested_scopes(self):
        root = RngStreams(seed=3)
        nested = root.spawn("a").spawn("b")
        direct = RngStreams(seed=3).stream("a/b/c").random(2)
        np.testing.assert_array_equal(nested.stream("c").random(2), direct)


class TestLognormalAround:
    def test_zero_cv_is_deterministic(self):
        rng = RngStreams(seed=0).stream("t")
        assert lognormal_around(rng, 0.05, 0.0) == 0.05

    def test_zero_mean_returns_zero(self):
        rng = RngStreams(seed=0).stream("t")
        assert lognormal_around(rng, 0.0, 0.5) == 0.0

    def test_negative_inputs_rejected(self):
        rng = RngStreams(seed=0).stream("t")
        with pytest.raises(ValueError):
            lognormal_around(rng, -1.0, 0.1)
        with pytest.raises(ValueError):
            lognormal_around(rng, 1.0, -0.1)

    def test_sample_mean_and_cv_match_parameters(self):
        rng = RngStreams(seed=11).stream("t")
        samples = np.array([lognormal_around(rng, 0.050, 0.2) for _ in range(20000)])
        assert samples.mean() == pytest.approx(0.050, rel=0.02)
        assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.05)
        assert (samples > 0).all()


def per_draw_lognormal(rng, mean, cv):
    """The reference: the lognormal's parameters computed at every draw."""
    if mean == 0 or cv == 0:
        return mean
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(rng.lognormal(mean=mu, sigma=np.sqrt(sigma2)))


def twin_streams():
    return RngStreams(seed=5).stream("t"), RngStreams(seed=5).stream("t")


def hexes(values):
    return [float(v).hex() for v in values]


#: Means and coefficients of variation from 0 through the subnormals to
#: values whose squares or logarithms are near the float64 limits.
MEANS = [0.0, 5e-324, 1e-300, 1e-9, 0.00005, 0.0012, 0.05, 1.0, 1e6, 1e300]
CVS = [0.0, 5e-324, 1e-160, 1e-8, 0.05, 0.25, 1.0, 10.0, 1e150]
DRAWS = 12


@pytest.mark.parametrize("cv", CVS)
@pytest.mark.parametrize("mean", MEANS)
class TestParametersFixedOnce:
    """Each component that fixes its lognormal's (mu, sigma) draws, in
    lockstep on a twin generator, the bits the per-draw formula draws."""

    def test_lognormal_params(self, mean, cv):
        rng, twin = twin_streams()
        params = lognormal_params(mean, cv)
        got = [mean if params is None else rng.lognormal(*params)
               for _ in range(DRAWS)]
        want = [per_draw_lognormal(twin, mean, cv) for _ in range(DRAWS)]
        assert hexes(got) == hexes(want)
        assert hexes([lognormal_around(rng, mean, cv)]) == hexes(
            [per_draw_lognormal(twin, mean, cv)]
        )

    def test_cpu_jobs_scaled_and_fixed(self, mean, cv):
        """A scaled and a fixed job of the same reference seconds have
        different means on a device whose cpu_factor is not 1."""
        factor = 2.5
        rng, twin = twin_streams()
        kernel = Kernel()
        cpu = Cpu(kernel, DeviceSpec(name="dev", cpu_factor=factor, cores=1,
                                     compute_jitter_cv=cv), rng)
        got, want, fixed = [], [], []
        for _ in range(DRAWS // 2):
            fixed.append(Outcome(kernel))
            cpu.execute_fixed(mean, fixed[-1])
            want.append(per_draw_lognormal(twin, mean, cv))
            got.append(cpu.sample_duration(mean))
            want.append(per_draw_lognormal(twin, mean * factor, cv))
        assert hexes(got) == hexes(want[1::2])
        kernel.run()
        assert hexes(job.value for job in fixed) == hexes(want[::2])

    def test_link_latency(self, mean, cv):
        rng, twin = twin_streams()
        kernel = Kernel()
        link = Link(kernel, LinkSpec(latency_s=mean, jitter_cv=cv), rng)
        arrivals = [link.transfer(0) for _ in range(DRAWS)]
        want = [per_draw_lognormal(twin, mean, cv) for _ in range(DRAWS)]
        assert hexes(arrivals) == hexes(want)


def test_a_stream_is_seeded_at_its_first_draw():
    """A core pool, a link and a service context handed the call that
    builds their stream seed none until they draw, and then draw what a
    stream built up front draws."""
    streams, eager = RngStreams(seed=9), RngStreams(seed=9)
    kernel = Kernel()
    cpu = Cpu(kernel, DeviceSpec(name="dev", compute_jitter_cv=0.2),
              partial(streams.stream, "cpu"))
    link = Link(kernel, LinkSpec(jitter_cv=0.2, loss_prob=0.5),
                partial(streams.stream, "link"))
    ctx = ServiceCallContext("dev", FrameStore("dev"),
                             partial(streams.stream, "service"), kernel)
    assert streams._streams == {}
    durations = [cpu.sample_duration(0.01) for _ in range(3)]
    arrivals = [link.transfer(100) for _ in range(3)]
    noise = ctx.rng.random(3)
    assert sorted(streams._streams) == ["cpu", "link", "service"]
    kernel.run()
    twin_cpu = Cpu(Kernel(), DeviceSpec(name="dev", compute_jitter_cv=0.2),
                   eager.stream("cpu"))
    twin_kernel = Kernel()
    twin_link = Link(twin_kernel, LinkSpec(jitter_cv=0.2, loss_prob=0.5),
                     eager.stream("link"))
    twin_arrivals = [twin_link.transfer(100) for _ in range(3)]
    twin_kernel.run()
    assert hexes(durations) == hexes(twin_cpu.sample_duration(0.01)
                                     for _ in range(3))
    assert hexes(arrivals) == hexes(twin_arrivals)
    assert list(noise) == list(eager.stream("service").random(3))
