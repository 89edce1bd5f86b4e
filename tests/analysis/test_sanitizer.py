"""Unit tests for the runtime concurrency sanitizer primitives."""

import asyncio
import socket
import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    ConcurrencySanitizerError,
    bind_owner,
    check_blocking_call,
    check_cache_serve,
    check_mutation,
    check_record_serve,
    execution_region,
    is_active,
    note_effective_mutations,
    owner_context,
    release_owner,
    sanitize_mode,
    set_sanitize,
)
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema


@pytest.fixture
def active():
    """Enable the sanitizer for one test, restoring the previous mode
    (and the real time.sleep / socket.socket) afterwards."""
    previous = set_sanitize("always")
    try:
        yield
    finally:
        set_sanitize(previous)


def make_db():
    schema = Schema([RelationSchema("R", ["a", "b"])])
    db = Database(schema)
    db.insert_all("R", [(i, i % 5) for i in range(20)])
    return db


class TestModeSwitch:
    def test_default_is_off(self, request):
        if request.config.getoption("--sanitize"):
            pytest.skip("suite runs with the sanitizer always-on")
        assert sanitize_mode() == "off"
        assert not is_active()

    def test_set_returns_previous(self, active):
        assert sanitize_mode() == "always"
        assert set_sanitize("always") == "always"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            set_sanitize("sometimes")

    def test_off_restores_blocking_primitives(self):
        # Start from off even when the suite runs --sanitize, so the
        # captured sleep/socket are the real primitives.
        previous = set_sanitize("off")
        real_sleep = time.sleep
        real_socket = socket.socket
        try:
            set_sanitize("always")
            assert time.sleep is not real_sleep
            assert socket.socket is not real_socket
            set_sanitize("off")
            assert time.sleep is real_sleep
            assert socket.socket is real_socket
        finally:
            set_sanitize(previous)

    def test_checks_are_noops_when_off(self):
        previous = set_sanitize("off")
        try:
            db = make_db()
            bind_owner(db, "nobody")  # no-op: never registered
            check_mutation(db)
            check_cache_serve("cache", db, -999)
        finally:
            set_sanitize(previous)


class TestOwnership:
    def test_unowned_mutation_passes(self, active):
        db = make_db()
        db.insert("R", 100, 0)

    def test_owned_mutation_outside_grant_raises(self, active):
        db = make_db()
        bind_owner(db, "test lane")
        try:
            with pytest.raises(ConcurrencySanitizerError) as err:
                db.insert("R", 100, 0)
            assert err.value.check == "lane-ownership"
            assert "test lane" in str(err.value)
        finally:
            release_owner(db)

    def test_grant_allows_mutation(self, active):
        db = make_db()
        bind_owner(db, "test lane")
        try:
            with owner_context(db):
                db.insert("R", 100, 0)
        finally:
            release_owner(db)

    def test_grant_is_thread_local(self, active):
        db = make_db()
        bind_owner(db, "test lane")
        errors = []

        def mutate():
            try:
                db.insert("R", 101, 0)
            except ConcurrencySanitizerError as exc:
                errors.append(exc)

        try:
            with owner_context(db):
                worker = threading.Thread(target=mutate)
                worker.start()
                worker.join()
        finally:
            release_owner(db)
        assert len(errors) == 1
        assert errors[0].check == "lane-ownership"

    def test_double_bind_raises(self, active):
        db = make_db()
        bind_owner(db, "first lane")
        try:
            with pytest.raises(ConcurrencySanitizerError) as err:
                bind_owner(db, "second lane")
            assert "first lane" in str(err.value)
        finally:
            release_owner(db)

    def test_release_then_rebind(self, active):
        db = make_db()
        bind_owner(db, "first")
        release_owner(db)
        bind_owner(db, "second")
        release_owner(db)


class TestRegions:
    def test_mutation_from_other_thread_mid_region_raises(self, active):
        db = make_db()
        errors = []

        def mutate():
            try:
                db.insert("R", 200, 0)
            except ConcurrencySanitizerError as exc:
                errors.append(exc)

        with execution_region(db):
            worker = threading.Thread(target=mutate)
            worker.start()
            worker.join()
        assert [e.check for e in errors] == ["execution-affinity"]

    def test_same_thread_mutation_in_region_passes(self, active):
        db = make_db()
        with execution_region(db):
            db.insert("R", 200, 0)

    def test_region_is_reentrant_same_thread(self, active):
        db = make_db()
        with execution_region(db), execution_region(db):
            pass

    def test_second_thread_entering_region_raises(self, active):
        db = make_db()
        errors = []

        def evaluate():
            try:
                with execution_region(db):
                    pass
            except ConcurrencySanitizerError as exc:
                errors.append(exc)

        with execution_region(db):
            worker = threading.Thread(target=evaluate)
            worker.start()
            worker.join()
        assert [e.check for e in errors] == ["execution-affinity"]


class TestCacheServe:
    def test_matching_serve_passes(self, active):
        db = make_db()
        check_cache_serve("cache", db, db.stats_version, ("t",), ("t",))

    def test_stale_version_raises(self, active):
        db = make_db()
        stored = db.stats_version
        db.insert("R", 400, 0)
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_cache_serve("cache", db, stored)
        assert err.value.check == "stale-cache"

    def test_stale_fingerprint_raises(self, active):
        db = make_db()
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_cache_serve(
                "cache", db, db.stats_version, ("old",), ("new",)
            )
        assert err.value.check == "stale-cache"

    def test_unbumped_version_raises_at_serve(self, active, monkeypatch):
        db = make_db()
        monkeypatch.setattr(
            Database, "_note_stats_mutations", lambda self, count: None
        )
        db.insert("R", 401, 0)  # shadow advances, live version does not
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_cache_serve("cache", db, db.stats_version)
        assert err.value.check == "version-integrity"

    def test_relation_version_tags(self, active):
        db = make_db()
        stored = db.versions(["R"])
        check_cache_serve("cache", db, stored)
        db.insert("R", 402, 0)
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_cache_serve("cache", db, stored)
        assert err.value.check == "stale-cache"
        assert "R version=" in str(err.value)

    def test_record_serve_matches_or_raises(self, active):
        db = make_db()
        check_record_serve("records", db, {"a": 1}, {"a": 1})
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_record_serve("records", db, {"a": 1}, {"a": 2})
        assert err.value.check == "stale-cache"

    def test_record_serve_checks_the_shadow(self, active, monkeypatch):
        db = make_db()
        monkeypatch.setattr(
            Database, "_note_stats_mutations", lambda self, count: None
        )
        db.insert("R", 403, 0)
        with pytest.raises(ConcurrencySanitizerError) as err:
            check_record_serve("records", db, {"a": 1}, {"a": 1})
        assert err.value.check == "version-integrity"


class TestBlockingDetection:
    def test_sleep_off_loop_passes(self, active):
        time.sleep(0)

    def test_sleep_on_loop_raises(self, active):
        async def block():
            time.sleep(0)

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(block())
        assert err.value.check == "event-loop-blocking"

    def test_blocking_socket_on_loop_raises(self, active):
        async def block():
            with socket.socket() as sock:
                sock.connect(("127.0.0.1", 9))

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(block())
        assert err.value.check == "event-loop-blocking"

    def test_nonblocking_socket_on_loop_passes(self, active):
        async def poll():
            with socket.socket() as sock:
                sock.setblocking(False)
                try:
                    sock.connect(("127.0.0.1", 9))
                except (BlockingIOError, OSError):
                    pass

        asyncio.run(poll())

    def test_check_blocking_call_off_loop_is_silent(self, active):
        check_blocking_call("time.sleep")


class TestStateHygiene:
    def test_registry_entries_die_with_the_database(self, active):
        db = make_db()
        bind_owner(db, "short-lived")
        key = id(db)
        assert key in sanitizer._owners
        del db
        import gc

        gc.collect()
        assert key not in sanitizer._owners

    def test_note_effective_mutations_tracks_counts(self, active):
        db = make_db()
        note_effective_mutations(db, 0)  # seed shadow at current version
        db.insert("R", 500, 0)
        check_cache_serve("cache", db, db.stats_version)  # still in sync
