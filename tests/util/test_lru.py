"""Tests for the one cache primitive (:class:`VersionedLRU`) and its
bounding helpers, including eviction under concurrent drains."""

import threading
from collections import OrderedDict

import pytest

from repro.analysis.sanitizer import ConcurrencySanitizerError, set_sanitize
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema
from repro.util.lru import VersionedLRU, check_max_entries, evict_lru


def make_db():
    db = Database(Schema([RelationSchema("R", ["a"])]))
    db.insert("R", 1)
    return db


class TestCheckMaxEntries:
    def test_valid_bound_passes_through(self):
        assert check_max_entries(1) == 1
        assert check_max_entries(4096) == 4096

    def test_zero_and_negative_are_rejected(self):
        with pytest.raises(ValueError):
            check_max_entries(0)
        with pytest.raises(ValueError):
            check_max_entries(-3)


class TestEvictLru:
    def test_evicts_oldest_first(self):
        store = OrderedDict((i, i) for i in range(5))
        assert evict_lru(store, 2) == 3
        assert list(store) == [3, 4]

    def test_within_bound_is_a_noop(self):
        store = OrderedDict((i, i) for i in range(3))
        assert evict_lru(store, 3) == 0
        assert len(store) == 3

    def test_concurrent_drain_is_tolerated(self):
        # Two threads evict the same over-full store at once.  Between
        # one thread's len() check and its popitem() the other may have
        # emptied the store; the KeyError that raises must be treated
        # as "the other thread finished the job", not propagated.
        errors = []
        barrier = threading.Barrier(2)

        def drain(store):
            barrier.wait()
            try:
                for _ in range(200):
                    evict_lru(store, 1)
                    store[object()] = None
                    store[object()] = None
            except KeyError as exc:  # pragma: no cover - the regression
                errors.append(exc)

        store = OrderedDict((i, i) for i in range(100))
        workers = [
            threading.Thread(target=drain, args=(store,)) for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == []

    def test_concurrent_get_put_evict_stays_bounded(self):
        # Mixed readers/writers/evictors: no exceptions escape and the
        # final sweep lands the store at the bound.
        store = OrderedDict()
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(500):
                    store[(threading.get_ident(), i)] = i
                    evict_lru(store, 64)
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            while not stop.is_set():
                try:
                    for key in list(store):
                        store.get(key)
                except RuntimeError:
                    # list() can lose the size-change race; retry.
                    continue

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert evict_lru(store, 64) >= 0
        assert len(store) <= 64


class TestVersionedLRU:
    def test_untagged_get_put_and_counters(self):
        cache = VersionedLRU(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.counters() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }

    def test_lru_eviction_refreshes_on_hit(self):
        cache = VersionedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # b becomes the least recently used entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache
        assert cache.evictions == 1 and len(cache) == 2

    def test_stale_version_is_dropped_not_served(self):
        db = make_db()
        cache = VersionedLRU(4)
        cache.put("k", "v", db, db.stats_version)
        db.insert("R", 2)
        assert cache.get("k", db, db.stats_version) is None
        assert "k" not in cache and cache.misses == 1

    def test_stale_token_is_dropped_not_served(self):
        db = make_db()
        cache = VersionedLRU(4)
        cache.put("k", "v", db, db.stats_version, ("t", 1))
        assert cache.get("k", db, db.stats_version, ("t", 2)) is None
        assert "k" not in cache

    def test_foreign_database_entries_are_left_alone(self):
        one, two = make_db(), make_db()
        cache = VersionedLRU(4)
        cache.put("k", "v", one, one.stats_version)
        assert cache.get("k", two, two.stats_version) is None
        assert cache.get("k", one, one.stats_version) == "v"

    def test_peek_is_observational(self):
        db = make_db()
        cache = VersionedLRU(2)
        cache.put("a", 1, db, db.stats_version)
        cache.put("b", 2, db, db.stats_version)
        assert cache.peek("a", db, db.stats_version) == 1
        assert cache.peek("a", db, -1) is None  # stale, but kept
        assert "a" in cache
        cache.put("c", 3, db, db.stats_version)  # LRU order unchanged
        assert "a" not in cache
        assert (cache.hits, cache.misses) == (0, 0)

    def test_clear_resets_entries_and_counters(self):
        cache = VersionedLRU(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("b")
        cache.get("a")
        cache.clear()
        assert cache.counters() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }

    def test_discard(self):
        cache = VersionedLRU(4)
        cache.put("a", 1, version=1)
        cache.put("b", 2, version=2)
        cache.put("c", 3, version=1)
        cache.discard("a")
        cache.discard("missing")
        assert "a" not in cache
        assert cache.peek("c", version=1) == 3
        assert cache.counters() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 2,
        }

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            VersionedLRU(0)

    def test_sanitizer_catches_a_serve_that_skips_validation(
        self, monkeypatch
    ):
        db = make_db()
        cache = VersionedLRU(4, "test cache")
        cache.put("k", "v", db, db.stats_version)
        db.insert("R", 2)
        monkeypatch.setattr(VersionedLRU, "_fresh", lambda *args: True)
        previous = set_sanitize("always")
        try:
            with pytest.raises(ConcurrencySanitizerError) as err:
                cache.get("k", db, db.stats_version)
        finally:
            set_sanitize(previous)
        assert err.value.check == "stale-cache"
        assert "test cache" in str(err.value)
