"""Per-host service result caching keyed by payload content.

LLAMA-style observation: on edge feeds dominated by static scenes, the
single biggest service-layer win is *not running the service at all*. A
:class:`ResultCache` lives on one :class:`~repro.services.host.ServiceHost`
and maps ``(service, payload content, params)`` to the previous result, so
a byte-identical request resolves instantly — zero queueing, zero simulated
CPU — on both the local and RPC call paths.

Keys come from :func:`payload_cache_key`: a content digest over the request
payload in which frame references are replaced by the digest of the frame
they point at (so the key is stable across reference ids) and every other
leaf — parameters included — is hashed by value. Payloads containing
undigestable leaves get no key and are never cached.

Only services that declare ``cacheable = True`` participate: caching is a
*semantic* contract (the service is a pure function of its payload, side
effects excluded), not something a host can infer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..errors import ServiceError
from ..frames.digest import content_digest
from ..frames.framestore import FrameStore

#: Returned by :meth:`ResultCache.lookup` on a miss (``None`` is a valid
#: cached value, so a sentinel is required).
MISS = object()


def payload_cache_key(
    service_name: str, payload: Any, store: FrameStore | None = None
) -> str | None:
    """A cache key for one service request, or ``None`` if uncacheable.

    ``store`` resolves :class:`~repro.frames.frame.FrameRef` leaves to
    content digests (the local call path); wire payloads carry
    :class:`~repro.frames.codec.EncodedFrame` leaves which digest directly.
    """
    resolver = None
    if store is not None:
        def resolver(ref):
            try:
                return store.digest_of(ref)
            except Exception:
                return None  # foreign/released ref: treat as uncacheable
    digest = content_digest(payload, resolve_ref=resolver)
    if digest is None:
        return None
    return f"{service_name}:{digest}"


class ResultCache:
    """A bounded LRU of service results.

    Entries never expire on their own; :meth:`invalidate` clears them
    explicitly, e.g. after a model update or a host restart.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ServiceError("cache max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- protocol --------------------------------------------------------------
    def lookup(self, key: str) -> Any:
        """The cached value for *key*, or the :data:`MISS` sentinel."""
        value = self._entries.get(key, MISS)
        if value is MISS:
            self.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: str, value: Any) -> None:
        """Insert (or refresh) *key*; evicts the LRU entry when over size."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry; returns how many were removed.

        The ``invalidations`` statistic counts *entries removed*, not calls
        to this method — invalidating an already-empty cache leaves it
        unchanged.
        """
        removed = len(self._entries)
        self._entries.clear()
        self.invalidations += removed
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResultCache {len(self._entries)}/{self.max_entries}"
            f" hits={self.hits} misses={self.misses}>"
        )
