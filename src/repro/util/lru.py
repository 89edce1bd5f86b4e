"""The one cache primitive: a bounded, version-tagged LRU map.

Every engine cache — the plan cache (both levels), the rewriting cache,
the sub-plan memo and its reservations, the rendered-record cache, the
view-inclusion order's containment cache, the fixity snapshot and
per-version engine caches and the per-column order statistics — is a
:class:`VersionedLRU`.  Bounding, version
checks, hit/miss/eviction counters and the concurrency sanitizer's
``stale-cache`` hook therefore live here once instead of once per
cache, and the ``RL102`` lint requires cache- and memo-named
attributes to be built from it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Generic, TypeVar

from repro.analysis import sanitizer as _sanitizer

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def check_max_entries(max_entries: int) -> int:
    """Validate a cache bound (every bounded store requires >= 1)."""
    if max_entries < 1:
        raise ValueError("max_entries must be at least 1")
    return max_entries


def evict_lru(store: OrderedDict, max_entries: int) -> int:
    """Pop least-recently-used entries beyond ``max_entries``.

    Returns the number of evictions.  Safe under concurrent eviction:
    ``len`` and ``popitem`` are separate operations, so another thread
    draining the same store can empty it between the two — that
    surfaces as ``popitem`` raising ``KeyError`` on an empty dict, which
    just means the other thread finished the job.
    """
    evicted = 0
    while len(store) > max_entries:
        try:
            store.popitem(last=False)
        except KeyError:
            break
        evicted += 1
    return evicted


class VersionedLRU(Generic[K, V]):
    """A bounded LRU map whose entries carry version tags.

    Each entry stores its value with three tags: the object it was
    computed over (a :class:`~repro.relational.database.Database`,
    compared by identity), a version and a content token.  :meth:`get`
    serves an entry only when the caller's tags match the stored ones:

    - an entry tagged with a *different* database is a miss and is left
      in place (two databases may share one cache without serving each
      other's entries);
    - an entry for the same database whose version or token differs is
      stale: it is dropped, never served.

    Caches whose values depend on nothing mutable (rewritings, view
    containment, committed snapshots) simply omit the tags.  When a
    database tag is present and the concurrency sanitizer is active,
    every serve is re-validated against the live database — its
    ``stats_version``, or the per-relation versions a tuple-valued
    version tag names
    (:func:`~repro.analysis.sanitizer.check_cache_serve`) — independently
    of :meth:`_fresh`, so a broken validation is caught at the serve.

    Cached values are never ``None``; ``None`` from :meth:`get` and
    :meth:`peek` means "not served".
    """

    def __init__(self, max_entries: int, label: str = "cache") -> None:
        self.label = label
        self.max_entries = check_max_entries(max_entries)
        #: key -> (value, db, version, token)
        self._store: OrderedDict[K, tuple[V, Any, Any, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _fresh(self, entry: tuple[V, Any, Any, Any], version: Any,
               token: Any) -> bool:
        """Whether a same-database entry's tags match the caller's."""
        return entry[2] == version and entry[3] == token

    def get(self, key: K, db: Any = None, version: Any = None,
            token: Any = None) -> V | None:
        """The fresh value for ``key`` (counted as a hit, moved to the
        most-recently-used end), or None (counted as a miss)."""
        entry = self._store.get(key)
        if entry is not None and entry[1] is db:
            if self._fresh(entry, version, token):
                if db is not None and _sanitizer._active:
                    _sanitizer.check_cache_serve(
                        self.label, db, entry[2], entry[3], token
                    )
                self.hits += 1
                self._store.move_to_end(key)
                return entry[0]
            del self._store[key]
        self.misses += 1
        return None

    def peek(self, key: K, db: Any = None, version: Any = None,
             token: Any = None) -> V | None:
        """Like :meth:`get` but purely observational: no counters move,
        LRU order is kept and stale entries stay in place."""
        entry = self._store.get(key)
        if (
            entry is not None
            and entry[1] is db
            and self._fresh(entry, version, token)
        ):
            return entry[0]
        return None

    def put(self, key: K, value: V, db: Any = None, version: Any = None,
            token: Any = None) -> None:
        """Store ``value`` under ``key`` with its tags, evicting the
        least recently used entries beyond the bound."""
        self._store[key] = (value, db, version, token)
        self._store.move_to_end(key)
        self.evictions += evict_lru(self._store, self.max_entries)

    def discard(self, key: K) -> None:
        """Drop ``key``'s entry, if any; no counter moves."""
        self._store.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: object) -> bool:
        """Whether any entry (possibly stale) is stored for ``key``."""
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def size(self) -> int:
        return len(self._store)

    def counters(self) -> dict[str, int]:
        """Hit/miss/eviction counters and the current size (``/stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._store),
        }
