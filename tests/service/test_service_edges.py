"""Robustness edge cases: malformed input, saturation, timeouts, and
the mutation-vs-in-flight-read consistency guarantee."""

import threading
import time

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.service import ServiceClient, ServiceConfig, ServiceThread

GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
VGIC = 'Q(N) :- Family(F, N, Ty), Ty = "vgic"'


def fresh_engine():
    registry = paper_registry()
    return CitationEngine(
        paper_database(), registry, policy=focused_policy(registry)
    )


class TestMalformedInput:
    def test_malformed_json_is_400(self, client):
        reply = client.request("POST", "/cite", b"{not json")
        assert reply.status == 400
        assert "not valid JSON" in reply.data["error"]

    def test_non_object_body_is_400(self, client):
        reply = client.post("/cite", ["a", "list"])
        assert reply.status == 400
        assert "JSON object" in reply.data["error"]

    def test_missing_query_is_400(self, client):
        reply = client.post("/cite", {"nope": 1})
        assert reply.status == 400

    def test_blank_query_is_400(self, client):
        reply = client.post("/cite", {"query": "   "})
        assert reply.status == 400

    def test_protocol_errors_are_counted(self, service, client):
        client.request("POST", "/cite", b"{broken")
        stats = client.stats()
        assert stats["service"]["protocol_errors"] >= 1


class TestOversizedRequests:
    def test_oversize_is_413_then_connection_recovers(self, client):
        reply = client.request("POST", "/cite", b"x" * 2_000_000)
        assert reply.status == 413
        assert "exceeds" in reply.data["error"]
        # The client reconnects transparently and traffic continues.
        assert client.cite(GPCR).status == 200

    def test_custom_body_limit(self):
        config = ServiceConfig(port=0, max_body_bytes=64)
        with ServiceThread(fresh_engine(), config) as handle:
            client = ServiceClient(handle.base_url)
            try:
                reply = client.post("/cite", {"query": "Q" * 200})
                assert reply.status == 413
            finally:
                client.close()


class TestTimeouts:
    def test_timeout_mid_plan_is_504(self):
        engine = fresh_engine()
        original = engine.cite_batch

        def slow_cite_batch(queries, *args, **kwargs):
            time.sleep(0.3)
            return original(queries, *args, **kwargs)

        engine.cite_batch = slow_cite_batch
        config = ServiceConfig(port=0, request_timeout_s=0.05)
        with ServiceThread(engine, config) as handle:
            client = ServiceClient(handle.base_url)
            try:
                reply = client.cite(GPCR)
                assert reply.status == 504
                assert "timed out" in reply.data["error"]
                stats = client.stats()
                assert stats["service"]["timeouts"] >= 1
            finally:
                client.close()

    def test_work_completes_server_side_after_504(self):
        """The timed-out job still runs to completion on the lane, so
        the caches it warms benefit the next request."""
        engine = fresh_engine()
        original = engine.cite_batch
        calls = []

        def slow_once(queries, *args, **kwargs):
            calls.append(len(queries))
            if len(calls) == 1:
                time.sleep(0.2)
            return original(queries, *args, **kwargs)

        engine.cite_batch = slow_once
        config = ServiceConfig(port=0, request_timeout_s=0.05)
        with ServiceThread(engine, config) as handle:
            client = ServiceClient(handle.base_url)
            try:
                assert client.cite(GPCR).status == 504
                # Give the abandoned job a beat to finish on the lane.
                time.sleep(0.3)
                reply = client.cite(GPCR)
                assert reply.status == 200
            finally:
                client.close()
        assert len(calls) == 2  # first job ran to completion


class TestSaturation:
    def test_429_with_retry_after_under_load(self):
        engine = fresh_engine()
        original = engine.cite_batch
        release = threading.Event()
        occupied = threading.Event()

        def blocking_cite_batch(queries, *args, **kwargs):
            occupied.set()
            release.wait(30.0)
            return original(queries, *args, **kwargs)

        engine.cite_batch = blocking_cite_batch
        config = ServiceConfig(
            port=0, max_pending=1, request_timeout_s=10.0,
            retry_after_s=2.0,
        )
        with ServiceThread(engine, config) as handle:
            first_status = []

            def occupy():
                occupier = ServiceClient(handle.base_url)
                try:
                    first_status.append(occupier.cite(GPCR).status)
                finally:
                    occupier.close()

            thread = threading.Thread(target=occupy)
            thread.start()
            client = ServiceClient(handle.base_url)
            try:
                # Wait until the slow job actually occupies the lane;
                # the probe's refusal check takes no lane job, so the
                # probe goes straight to cite admission — and bounces
                # off the full queue.
                assert occupied.wait(5.0)
                reply = client.request("POST", "/cite",
                                       {"query": GPCR})
                assert reply.status == 429
                assert reply.headers.get("retry-after") == "2"
                stats = client.stats()
                assert stats["admission"]["rejected"] >= 1
                assert stats["admission"]["max_pending"] == 1
            finally:
                release.set()
                thread.join(timeout=5.0)
                client.close()
            assert first_status == [200]


class TestInvalidationRace:
    def test_insert_during_inflight_cite_keeps_snapshots_consistent(self):
        """A cite admitted before an insert must see the pre-insert
        database; one admitted after must see the post-insert state.
        The single engine lane totally orders the two."""
        engine = fresh_engine()
        original = engine.cite_batch
        started = threading.Event()

        def slow_cite_batch(queries, *args, **kwargs):
            started.set()
            time.sleep(0.15)
            return original(queries, *args, **kwargs)

        engine.cite_batch = slow_cite_batch
        config = ServiceConfig(port=0)
        with ServiceThread(engine, config) as handle:
            results = {}

            def cite_inflight():
                reader = ServiceClient(handle.base_url)
                try:
                    reply = reader.cite(GPCR, include_tuples=True)
                    results["inflight"] = reply
                finally:
                    reader.close()

            thread = threading.Thread(target=cite_inflight)
            thread.start()
            writer = ServiceClient(handle.base_url)
            try:
                # Insert while the first citation is mid-execution.
                assert started.wait(5.0)
                reply = writer.insert(
                    "Family", [["F9999", "RaceFam", "gpcr"]]
                )
                assert reply.status == 200
                thread.join(timeout=10.0)
                post = writer.cite(GPCR, include_tuples=True)
            finally:
                writer.close()

        inflight_names = {
            tuple(entry["tuple"])
            for entry in results["inflight"].data["tuples"]
        }
        post_names = {
            tuple(entry["tuple"]) for entry in post.data["tuples"]
        }
        # The in-flight citation saw the pre-insert snapshot…
        assert ("RaceFam",) not in inflight_names
        # …and the follow-up sees the new row.
        assert ("RaceFam",) in post_names


class TestCrossClientBatching:
    def test_concurrent_cites_coalesce(self):
        """Single-query clients that queue behind a running lane job
        share one engine batch — visible as batches_executed < requests
        in /stats."""
        engine = fresh_engine()
        original = engine.cite_batch
        occupied, release = threading.Event(), threading.Event()

        def held_cite_batch(queries):
            if not occupied.is_set():
                occupied.set()
                release.wait(30.0)
            return original(queries)

        engine.cite_batch = held_cite_batch
        clients = 4
        with ServiceThread(engine) as handle:
            statuses = []

            def one_client():
                client = ServiceClient(handle.base_url)
                try:
                    statuses.append(client.cite(GPCR).status)
                finally:
                    client.close()

            threads = [
                threading.Thread(target=one_client)
                for __ in range(clients)
            ]
            threads[0].start()
            observer = ServiceClient(handle.base_url)
            try:
                assert occupied.wait(5.0)
                for thread in threads[1:]:
                    thread.start()
                # The other clients queue behind the held batch.
                deadline = time.monotonic() + 5.0
                while (
                    observer.stats()["admission"]["outstanding"] < clients
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release.set()
                for thread in threads:
                    thread.join(timeout=15.0)
                batching = observer.stats()["service"]["batching"]
            finally:
                release.set()
                observer.close()
        assert statuses == [200] * clients
        assert batching["batched_requests"] == clients
        # At least some coalescing happened: fewer engine batches than
        # requests, and one batch carried multiple clients' queries.
        assert batching["batches_executed"] < clients
        assert batching["max_batch_size"] >= 2

    def test_failing_query_fails_only_its_own_request(self):
        """A λ-query cannot be rewritten; coalesced with a valid query,
        it fails its own request and the valid one is still cited."""
        bad = "lambda X. Q(N) :- Family(X, N, Ty)"
        engine = fresh_engine()
        original = engine.cite_batch
        occupied, release = threading.Event(), threading.Event()

        def held_cite_batch(queries):
            if not occupied.is_set():
                occupied.set()
                release.wait(30.0)
            return original(queries)

        engine.cite_batch = held_cite_batch
        expected = fresh_engine().cite(GPCR).citation()
        config = ServiceConfig(port=0)
        with ServiceThread(engine, config) as handle:
            replies = {}

            def cite(name, text):
                client = ServiceClient(handle.base_url)
                try:
                    replies[name] = client.cite(text)
                finally:
                    client.close()

            threads = [
                threading.Thread(target=cite, args=("occupier", VGIC))
            ]
            threads[0].start()
            observer = ServiceClient(handle.base_url)
            try:
                assert occupied.wait(5.0)
                for name, text in (("good", GPCR), ("bad", bad)):
                    threads.append(
                        threading.Thread(target=cite, args=(name, text))
                    )
                    threads[-1].start()
                # Neither is refused, which the handler decides without
                # a lane job, so both go straight to the lane's queue
                # and wait behind the held batch: they coalesce.
                deadline = time.monotonic() + 5.0
                while (
                    observer.stats()["admission"]["outstanding"] < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release.set()
                for thread in threads:
                    thread.join(timeout=10.0)
                batching = observer.stats()["service"]["batching"]
            finally:
                release.set()
                observer.close()
        assert replies["occupier"].status == 200
        assert replies["good"].status == 200
        assert replies["good"].data == expected
        assert replies["bad"].status == 400
        assert replies["bad"].data["kind"] == "RewritingError"
        assert batching["max_batch_size"] >= 2


class TestDrain:
    def test_draining_service_rejects_new_work_and_exits(self):
        engine = fresh_engine()
        handle = ServiceThread(engine).start()
        client = ServiceClient(handle.base_url)
        try:
            assert client.cite(GPCR).status == 200
        finally:
            client.close()
        handle.stop()
        # The lane is stopped with the service: nothing leaks.
        assert handle.service is not None
        assert handle.service.lane.outstanding == 0

    def test_graceful_stop_completes_inflight_request(self):
        engine = fresh_engine()
        original = engine.cite_batch

        def slow_cite_batch(queries, *args, **kwargs):
            time.sleep(0.2)
            return original(queries, *args, **kwargs)

        engine.cite_batch = slow_cite_batch
        handle = ServiceThread(engine).start()
        results = {}

        def cite():
            client = ServiceClient(handle.base_url)
            try:
                results["reply"] = client.cite(GPCR)
            finally:
                client.close()

        thread = threading.Thread(target=cite)
        thread.start()
        time.sleep(0.05)  # request is in flight
        handle.stop()     # graceful drain waits for it
        thread.join(timeout=10.0)
        assert results["reply"].status == 200


class TestLaneValidationThroughConfig:
    def test_bad_config_bounds_fail_fast(self):
        thread = ServiceThread(
            fresh_engine(), ServiceConfig(port=0, max_pending=0)
        )
        with pytest.raises(RuntimeError, match="failed to start"):
            thread.start()
