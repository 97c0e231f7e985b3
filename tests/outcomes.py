"""A waiter that records each call it gets: the continuation a test hands a
CPU job, a hold or a transfer, which take one instead of returning a
signal."""

from __future__ import annotations

from typing import Any


class Outcome:
    """Called as ``outcome(*bound, value, exc)``; keeps ``(value, exc, now,
    bound)`` per call."""

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.calls: list[tuple] = []

    def __call__(self, *args: Any) -> None:
        *bound, value, exc = args
        self.calls.append((value, exc, self.kernel.now, tuple(bound)))

    @property
    def done(self) -> bool:
        return bool(self.calls)

    @property
    def value(self) -> Any:
        """The value of the one call, which must have succeeded."""
        (value, exc, _, _), = self.calls
        assert exc is None, exc
        return value

    @property
    def at(self) -> float:
        """The simulated time of the one call."""
        (_, _, now, _), = self.calls
        return now
