"""Device-local frame stores with reference counting and content dedup.

The paper minimizes data copying by handing modules a *reference id* instead
of the frame: "The module code can use that id to do the modifications on
the image using the services and forward the frames to other modules" (§3).
:class:`FrameStore` implements that contract: frames (or any payload) are
parked once per device, co-located modules and services share them by
:class:`~repro.frames.frame.FrameRef`, and refcounts reclaim slots when the
last holder releases.

With ``dedup`` enabled the store is additionally *content-addressed* for
frames: a byte-identical :class:`~repro.frames.frame.VideoFrame` resolves
to the already-stored object (one slot, one refcount pool), which is what
makes static scenes nearly free downstream. Deduped objects whose refcount
hits zero are *retained* for a while (up to ``retain_limit`` entries) so the
next identical capture still hits; retained entries are the first thing
evicted under capacity pressure.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any

from ..errors import FrameStoreError, StaleHandleError
from .arena import EVICTED, RELEASED, ArenaHandle, FrameArena
from .digest import content_digest
from .frame import FrameRef, VideoFrame

#: How many retired refs keep a tombstone recording *why* they died, so a
#: stale dereference reports use-after-evict vs use-after-migrate vs
#: double-release instead of a generic "unknown reference".
TOMBSTONE_LIMIT = 1024


class FrameStore:
    """A per-device object store keyed by reference id.

    Args:
        device: owning device name (refs never cross devices).
        capacity: maximum simultaneously stored objects (live + retained).
        dedup: content-address byte-identical :class:`VideoFrame` objects.
        retain_limit: with dedup on, how many zero-refcount frames to keep
            around as dedup targets before reclaiming the oldest.
    """

    def __init__(
        self,
        device: str,
        capacity: int = 256,
        dedup: bool = False,
        retain_limit: int = 32,
    ) -> None:
        if capacity < 1:
            raise FrameStoreError("capacity must be >= 1")
        if retain_limit < 0:
            raise FrameStoreError("retain_limit must be >= 0")
        self.device = device
        self.capacity = capacity
        self.dedup = dedup
        self.retain_limit = retain_limit
        self._ids = itertools.count(1)
        self._objects: dict[int, Any] = {}
        self._refcounts: dict[int, int] = {}
        #: ref_id -> content digest (memoized; None = undigestable).
        self._digests: dict[int, str | None] = {}
        #: digest -> ref_id for dedup lookups (frames only).
        self._by_digest: dict[str, int] = {}
        #: zero-refcount entries kept alive as dedup targets (LRU by
        #: release order; value unused).
        self._retained: OrderedDict[int, None] = OrderedDict()
        #: The device's :class:`~repro.frames.arena.FrameArena`, or ``None``
        #: when the shared-memory frame plane is off (see ``attach_arena``).
        self.arena: FrameArena | None = None
        #: ref_id -> arena handle for stored :class:`VideoFrame` planes.
        self._handles: dict[int, ArenaHandle] = {}
        #: live handle -> ref_id (reverse map; handles are frozen/hashable).
        self._by_handle: dict[ArenaHandle, int] = {}
        #: ref_id -> retire reason for recently deleted refs (bounded LRU);
        #: lets ``_check`` raise a typed StaleHandleError naming the cause.
        self._tombstones: OrderedDict[int, str] = OrderedDict()
        #: Who hears of each hold and release: the auditor's mirror of this
        #: store, or ``None`` (set by ``VideoPipe._wire_device``).
        self.observer: Any = None
        # statistics for the ref-passing and dedup ablations
        self.stored_count = 0
        self.peak_occupancy = 0
        self.dedup_hits = 0
        self.dedup_misses = 0
        self.dedup_bytes_saved = 0
        self.retained_evictions = 0

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def live_count(self) -> int:
        """Objects with at least one holder."""
        return len(self._objects) - len(self._retained)

    @property
    def retained_count(self) -> int:
        """Zero-refcount objects kept as dedup targets."""
        return len(self._retained)

    # -- shared-memory arena ---------------------------------------------------
    def attach_arena(self, arena: FrameArena) -> None:
        """Back this store's pixel planes with *arena*: every stored
        :class:`VideoFrame` gets a generation-counted handle, and retired
        refs raise :class:`~repro.errors.StaleHandleError` naming the
        retire reason. Frames already stored are adopted in place."""
        if arena.arena_id != self.device:
            raise FrameStoreError(
                f"arena {arena.arena_id!r} cannot back the store on"
                f" {self.device!r} — the frame plane is device-local"
            )
        if self.arena is arena:
            return
        if self.arena is not None:
            raise FrameStoreError(
                f"store on {self.device!r} already has an arena attached"
            )
        self.arena = arena
        for ref_id, obj in self._objects.items():
            if isinstance(obj, VideoFrame) and ref_id not in self._handles:
                handle = arena.alloc(obj.raw_size)
                self._handles[ref_id] = handle
                self._by_handle[handle] = ref_id

    def handle_of(self, ref: FrameRef) -> ArenaHandle | None:
        """The arena handle backing *ref*'s pixel plane (``None`` when no
        arena is attached or the object is not a frame)."""
        self._check(ref)
        return self._handles.get(ref.ref_id)

    def frame_by_handle(self, handle: ArenaHandle) -> Any:
        """Resolve an arena handle straight to its frame, generation-checked.

        This is the zero-copy path a co-located service replica uses: no
        refcount traffic, no tree walk — just a generation check and a
        dictionary hit. Stale handles raise
        :class:`~repro.errors.StaleHandleError`."""
        if self.arena is None:
            raise FrameStoreError(
                f"store on {self.device!r} has no arena attached"
            )
        self.arena.check(handle)
        ref_id = self._by_handle.get(handle)
        if ref_id is None:
            raise StaleHandleError(
                f"handle {handle} is live in the arena but unknown to the"
                f" store on {self.device!r}", reason="unknown",
            )
        return self._objects[ref_id]

    # -- core protocol -------------------------------------------------------
    def put(self, obj: Any) -> FrameRef:
        """Park *obj* and return a reference with refcount 1.

        With dedup enabled, a byte-identical frame resolves to the existing
        stored object instead of taking a new slot.
        """
        digest: str | None = None
        if self.dedup and isinstance(obj, VideoFrame):
            digest = content_digest(obj)
            if digest is not None:
                existing = self._by_digest.get(digest)
                if existing is not None:
                    self.dedup_hits += 1
                    self.dedup_bytes_saved += obj.raw_size
                    if existing in self._retained:
                        del self._retained[existing]
                        self._refcounts[existing] = 1
                    else:
                        self._refcounts[existing] += 1
                    if self.observer is not None:
                        self.observer.held(existing, self._refcounts[existing])
                    return FrameRef(self.device, existing)
            self.dedup_misses += 1
        if len(self._objects) >= self.capacity:
            self._make_room()
        ref_id = next(self._ids)
        self._objects[ref_id] = obj
        self._refcounts[ref_id] = 1
        if self.arena is not None and isinstance(obj, VideoFrame):
            handle = self.arena.alloc(obj.raw_size)
            self._handles[ref_id] = handle
            self._by_handle[handle] = ref_id
        if digest is not None:
            self._digests[ref_id] = digest
            self._by_digest[digest] = ref_id
        self.stored_count += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._objects))
        if self.observer is not None:
            self.observer.held(ref_id, 1)
        return FrameRef(self.device, ref_id)

    def get(self, ref: FrameRef) -> Any:
        """Resolve a reference to its object (no copy)."""
        self._check(ref)
        return self._objects[ref.ref_id]

    def add_ref(self, ref: FrameRef) -> FrameRef:
        """Take an additional hold on the object (fan-out to two modules)."""
        self._check(ref)
        self._refcounts[ref.ref_id] += 1
        if self.observer is not None:
            self.observer.held(ref.ref_id, self._refcounts[ref.ref_id])
        return ref

    def release(self, ref: FrameRef, reason: str = RELEASED) -> None:
        """Drop one hold; the object is reclaimed when the count hits zero
        (or retained as a dedup target when dedup is on).

        *reason* is the arena retire reason recorded if this release frees
        the slot: :data:`~repro.frames.arena.RELEASED` for ordinary drops,
        :data:`~repro.frames.arena.MIGRATED` when the frame is shipped to
        another device (set by ``encode_refs_for_wire``)."""
        self._check(ref)
        ref_id = ref.ref_id
        self._refcounts[ref_id] -= 1
        if self.observer is not None:
            self.observer.released(ref_id, self._refcounts[ref_id])
        if self._refcounts[ref_id] == 0:
            if (
                self.dedup
                and self.retain_limit > 0
                and self._digests.get(ref_id) is not None
            ):
                self._retained[ref_id] = None
                while len(self._retained) > self.retain_limit:
                    oldest, _ = self._retained.popitem(last=False)
                    self.retained_evictions += 1
                    self._delete(oldest, EVICTED)
            else:
                self._delete(ref_id, reason)

    def refcount(self, ref: FrameRef) -> int:
        self._check(ref)
        return self._refcounts[ref.ref_id]

    def contains(self, ref: FrameRef) -> bool:
        return (
            ref.device == self.device
            and ref.ref_id in self._objects
            and ref.ref_id not in self._retained
        )

    # -- content addressing ----------------------------------------------------
    def digest_of(self, ref: FrameRef) -> str | None:
        """Content digest of the referenced object (memoized; ``None`` when
        the object has no stable byte representation)."""
        self._check(ref)
        ref_id = ref.ref_id
        if ref_id not in self._digests:
            self._digests[ref_id] = content_digest(self._objects[ref_id])
        return self._digests[ref_id]

    def dedup_ratio(self) -> float:
        """Fraction of dedup-eligible puts that hit an existing object."""
        attempts = self.dedup_hits + self.dedup_misses
        if attempts == 0:
            return 0.0
        return self.dedup_hits / attempts

    # -- capacity pressure ----------------------------------------------------
    def _make_room(self) -> None:
        """Free at least one slot or raise the leak diagnostic."""
        # retained dedup targets are pure cache: reclaim oldest first
        self._reclaim_retained()
        if len(self._objects) >= self.capacity:
            raise FrameStoreError(
                f"frame store on {self.device!r} full ({self.capacity} slots,"
                f" {self.retained_count} retained); a module is leaking"
                f" references — top holders: {self._top_holders()}"
            )

    def _reclaim_retained(self) -> None:
        """Delete retained (zero-refcount) entries oldest-first while the
        store is at or over capacity."""
        while self._retained and len(self._objects) >= self.capacity:
            oldest, _ = self._retained.popitem(last=False)
            self.retained_evictions += 1
            self._delete(oldest, EVICTED)

    def _top_holders(self, limit: int = 5) -> str:
        """The highest-refcount entries, for the leak diagnostic."""
        live = sorted(
            ((count, ref_id) for ref_id, count in self._refcounts.items()
             if count > 0),
            reverse=True,
        )[:limit]
        if not live:
            return "none (all retained)"
        return ", ".join(
            f"#{ref_id} {type(self._objects[ref_id]).__name__} x{count}"
            for count, ref_id in live
        )

    # -- helpers ---------------------------------------------------------------
    def _delete(self, ref_id: int, reason: str = RELEASED) -> None:
        del self._objects[ref_id]
        del self._refcounts[ref_id]
        digest = self._digests.pop(ref_id, None)
        if digest is not None and self._by_digest.get(digest) == ref_id:
            del self._by_digest[digest]
        handle = self._handles.pop(ref_id, None)
        if handle is not None:
            self._by_handle.pop(handle, None)
            if self.arena is not None:
                self.arena.free(handle, reason)
        self._tombstones[ref_id] = reason
        while len(self._tombstones) > TOMBSTONE_LIMIT:
            self._tombstones.popitem(last=False)

    def _check(self, ref: FrameRef) -> None:
        if ref.device != self.device:
            raise FrameStoreError(
                f"reference {ref} belongs to device {ref.device!r}; this store"
                f" is on {self.device!r} — frame refs never cross devices"
            )
        if ref.ref_id not in self._objects or ref.ref_id in self._retained:
            reason = self._tombstones.get(ref.ref_id)
            if reason is not None:
                raise StaleHandleError(
                    f"stale reference {ref}: the frame was {reason} after"
                    " the last live handle was minted — use-after-"
                    f"{'free' if reason == 'released' else reason}",
                    reason=reason,
                )
            raise FrameStoreError(f"unknown or already-released reference {ref}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrameStore {self.device} {self.live_count}"
            f"+{self.retained_count}r/{self.capacity}>"
        )
