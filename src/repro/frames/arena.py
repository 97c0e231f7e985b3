"""A shared-memory-style frame plane: generation-counted pixel arenas.

The paper's Fig. 6 argument is that the intra-device data plane should cost
~nothing: co-located modules and service replicas already share frames by
reference id, but every stored pixel plane is still an individually owned
Python object, and nothing distinguishes "this ref died because the frame
was evicted" from "it died because someone double-released".

:class:`FrameArena` models the missing layer: a per-device arena from which
the :class:`~repro.frames.framestore.FrameStore` allocates pixel planes,
handing out ``(arena_id, offset, generation)`` :class:`ArenaHandle` tokens.
Handles cost **zero charged wire bytes** on intra-device hops (a real
shared-memory segment ships only the tuple), and every slot carries a
generation counter bumped at retire time, so a stale dereference — after
eviction under capacity pressure, after the frame migrated to another
device, or after a double release — raises a typed
:class:`~repro.errors.StaleHandleError` naming the retire reason instead of
silently reading recycled memory. The invariant auditor mirrors arena
alloc/free counts and flags any stale access or end-of-run leak.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from ..errors import FrameStoreError, StaleHandleError

#: Retire reasons recorded per slot; a stale access reports the one that
#: retired the slot the handle still points at.
EVICTED = "evicted"
MIGRATED = "migrated"
RELEASED = "released"

RETIRE_REASONS = (EVICTED, MIGRATED, RELEASED)


@dataclass(frozen=True, slots=True)
class ArenaHandle:
    """A zero-copy token for one pixel plane inside a device arena.

    Attributes:
        arena_id: the owning arena (device-scoped; handles never cross
            devices, mirroring :class:`~repro.frames.frame.FrameRef`).
        offset: byte offset of the plane inside the arena.
        generation: the slot's generation at allocation time; a mismatch
            with the slot's current generation means the slot was retired
            (and possibly recycled) after this handle was minted.
        nbytes: size of the plane.
    """

    arena_id: str
    offset: int
    generation: int
    nbytes: int

    #: Wire-size hint consumed by :func:`repro.net.wire.payload_size`:
    #: an intra-device hop ships the tuple through shared memory, so the
    #: charged payload contribution is zero.
    @property
    def wire_size(self) -> int:
        return 0

    def __str__(self) -> str:
        return (
            f"arena-handle:{self.arena_id}/{self.offset}"
            f"@g{self.generation}"
        )


class FrameArena:
    """A per-device bump allocator with per-slot generation counters.

    The arena does not hold pixel bytes itself (the simulation's frames stay
    ordinary objects); it owns the *accounting*: which offsets are live,
    which generation each is on, why each retired slot died, and the
    conservation counters the auditor cross-checks.

    Args:
        arena_id: name of the owning device.
        capacity_bytes: optional hard byte budget; ``alloc`` past it raises
            :class:`~repro.errors.FrameStoreError` (the store's slot-count
            capacity usually trips first).
    """

    def __init__(self, arena_id: str, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 1:
            raise FrameStoreError("arena capacity_bytes must be >= 1")
        self.arena_id = arena_id
        self.capacity_bytes = capacity_bytes
        #: offset -> current generation (bumped when the slot retires).
        self._generations: dict[int, int] = {}
        #: offset -> live handle (present only while the slot is live).
        self._live: dict[int, ArenaHandle] = {}
        #: offset -> reason the slot last retired.
        self._retired_reason: dict[int, str] = {}
        #: size-class free lists for offset reuse.
        self._free: dict[int, list[int]] = {}
        self._next_offset = 0
        #: Who hears of each alloc, free and stale access: the auditor's
        #: mirror of this arena, or ``None`` (set by ``VideoPipe._wire_device``).
        self.observer: Any = None
        # conservation counters (mirrored by the auditor)
        self.allocs = 0
        self.frees = 0
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self.stale_accesses: Counter[str] = Counter()

    @property
    def live_count(self) -> int:
        """Slots currently allocated (must be 0 at quiesce)."""
        return len(self._live)

    # -- allocation ----------------------------------------------------------
    def alloc(self, nbytes: int) -> ArenaHandle:
        """Carve a plane of *nbytes* and return its handle (generation of
        the slot it landed in)."""
        if nbytes < 0:
            raise FrameStoreError("arena alloc size must be >= 0")
        if (
            self.capacity_bytes is not None
            and self.bytes_in_use + nbytes > self.capacity_bytes
        ):
            raise FrameStoreError(
                f"arena {self.arena_id!r} over byte budget:"
                f" {self.bytes_in_use} + {nbytes} > {self.capacity_bytes}"
            )
        bucket = self._free.get(nbytes)
        if bucket:
            offset = bucket.pop()
        else:
            offset = self._next_offset
            self._next_offset += max(nbytes, 1)
        generation = self._generations.get(offset, 0) + 1
        self._generations[offset] = generation
        handle = ArenaHandle(self.arena_id, offset, generation, nbytes)
        self._live[offset] = handle
        self._retired_reason.pop(offset, None)
        self.allocs += 1
        self.bytes_in_use += nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        if self.observer is not None:
            self.observer.allocated(handle)
        return handle

    def free(self, handle: ArenaHandle, reason: str = RELEASED) -> None:
        """Retire *handle*'s slot, recording *reason* and bumping the
        generation so any surviving copy of the handle goes stale."""
        if reason not in RETIRE_REASONS:
            raise FrameStoreError(f"unknown arena retire reason {reason!r}")
        self.check(handle)
        offset = handle.offset
        del self._live[offset]
        self._retired_reason[offset] = reason
        # bump now (not at realloc) so stale handles fail even before reuse
        self._generations[offset] = handle.generation + 1
        self._free.setdefault(handle.nbytes, []).append(offset)
        self.frees += 1
        self.bytes_in_use -= handle.nbytes
        if self.observer is not None:
            self.observer.freed(handle, reason)

    # -- validation ----------------------------------------------------------
    def check(self, handle: ArenaHandle) -> None:
        """Raise :class:`~repro.errors.StaleHandleError` unless *handle*
        points at the live generation of its slot."""
        if handle.arena_id != self.arena_id:
            raise FrameStoreError(
                f"handle {handle} belongs to arena {handle.arena_id!r}; this"
                f" arena is {self.arena_id!r} — handles never cross devices"
            )
        current = self._generations.get(handle.offset)
        if current == handle.generation and handle.offset in self._live:
            return
        reason = self._retired_reason.get(handle.offset, "unknown")
        self.stale_accesses[reason] += 1
        if self.observer is not None:
            self.observer.stale(handle, reason)
        raise StaleHandleError(
            f"stale arena handle {handle}: slot is at generation"
            f" {current if current is not None else '<never allocated>'}"
            f" (retired: {reason}) — the frame was {reason} after this"
            " handle was minted",
            reason=reason,
        )

    def is_live(self, handle: ArenaHandle) -> bool:
        """True when the handle still points at its slot's live generation."""
        return (
            handle.arena_id == self.arena_id
            and self._live.get(handle.offset) == handle
        )

    def stats(self) -> dict[str, Any]:
        """Conservation counters for the ablation benches and the auditor."""
        return {
            "allocs": self.allocs,
            "frees": self.frees,
            "live": self.live_count,
            "bytes_in_use": self.bytes_in_use,
            "peak_bytes": self.peak_bytes,
            "stale_accesses": dict(self.stale_accesses),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrameArena {self.arena_id} {self.live_count} live,"
            f" {self.bytes_in_use}B in use>"
        )
