"""Deterministic, named random-number streams.

Every stochastic component (each link's jitter, each service's compute-time
noise, each motion generator) draws from its **own named stream** derived from
one root seed. Adding a new component therefore never perturbs the draws seen
by existing components, which keeps calibrated benchmark results stable.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are keyed by name; requesting the same name twice returns the
    same generator instance (so sequential draws continue, they don't
    restart).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.seed, _stream_key(name)])
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def spawn(self, prefix: str) -> "ScopedRng":
        """Return a view that namespaces all stream names under *prefix*."""
        return ScopedRng(self, prefix)


class ScopedRng:
    """A namespaced view over :class:`RngStreams`."""

    def __init__(self, root: RngStreams, prefix: str) -> None:
        self._root = root
        self._prefix = prefix

    def stream(self, name: str) -> np.random.Generator:
        return self._root.stream(f"{self._prefix}/{name}")

    def spawn(self, prefix: str) -> "ScopedRng":
        return ScopedRng(self._root, f"{self._prefix}/{prefix}")


def lognormal_params(mean: float, cv: float) -> "tuple[float, float] | None":
    """The ``(mu, sigma)`` of the lognormal with the given *mean* and
    coefficient of variation *cv*, or ``None`` when ``mean`` or ``cv`` is 0
    (the draw is then *mean* itself, and no variate is consumed).

    A component whose *mean* and *cv* are fixed computes these once and
    draws ``rng.lognormal(mu, sigma)``: the same values
    :func:`lognormal_around` computes per draw, so the same variates.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if mean == 0 or cv == 0:
        return None
    sigma2 = np.log(1.0 + cv * cv)
    return float(np.log(mean) - sigma2 / 2.0), float(np.sqrt(sigma2))


def lognormal_around(rng: np.random.Generator, mean: float, cv: float) -> float:
    """Draw a lognormal sample with the given *mean* and coefficient of
    variation *cv* (std/mean). ``cv=0`` returns *mean* exactly.

    Used for service compute times: real inference latencies are positively
    skewed, and the paper's sub-source frame rates at low FPS (e.g. 8.21
    measured at a 10 FPS source) arise from exactly this kind of jitter
    interacting with the one-frame-in-flight protocol.
    """
    params = lognormal_params(mean, cv)
    if params is None:
        return mean
    return rng.lognormal(*params)
