"""E17 (service): one warm shared engine vs cold per-consumer engines.

The deployment claim behind ``repro serve``: a repository front-end that
keeps **one** warm :class:`CitationEngine` behind an HTTP service
amortizes plan cache, rewriting cache, and sub-plan memo across *all*
traffic, where the per-process model (every consumer builds its own
engine, cites, exits) pays the cold-start on every request.

The workload reuses the E16 batch-overlap shape — six queries sharing an
expensive 3-step join prefix — because it exercises every shared cache
at once: repeated queries hit the plan cache, and the shared prefix
(reserved by a warm-up ``/cite-batch``) turns into sub-plan memo hits
for later single-query requests.

Assertions (the PR's acceptance gate):

- N sequential requests against the warm service run ≥1.5× faster than
  N cold per-consumer engine runs;
- ``/stats`` after the run shows plan-cache *and* sub-plan-memo hits.
"""

import time

from repro.citation.generator import CitationEngine
from repro.service import ServiceClient, ServiceThread
from repro.views.registry import ViewRegistry

from bench_e16_planner import _overlap_queries, _scaled, overlap_database

#: Sequential requests measured against each deployment model.
REQUESTS = 30


def _overlap_setup(quick: bool):
    # Quick floors stay high enough that engine work dominates the
    # ~1ms/request HTTP overhead — the ratio under test is about cache
    # reuse, not socket throughput.
    db = overlap_database(
        hop1_rows=_scaled(300, quick, floor=200),
        junk=_scaled(5000, quick, floor=3000),
    )
    registry = ViewRegistry(db.schema)
    return db, registry


def _request_stream(count: int) -> list[str]:
    queries = _overlap_queries()
    return [queries[i % len(queries)] for i in range(count)]


def test_e17_warm_service_beats_cold_engines(quick):
    """The headline: N sequential requests against the warm service are
    ≥1.5× faster than N cold per-consumer engine runs (in practice far
    more: every cold run replans and re-evaluates the shared prefix)."""
    db, registry = _overlap_setup(quick)
    stream = _request_stream(REQUESTS)

    # --- cold model: each consumer builds its own engine and cites.
    # (In-process construction is *conservative* vs the real per-process
    # model, which additionally pays interpreter + import start-up.)
    started = time.perf_counter()
    for text in stream:
        cold_engine = CitationEngine(db, registry)
        cold_engine.cite(text)
    cold_elapsed = time.perf_counter() - started

    # --- warm model: one service, one engine, shared caches.
    engine = CitationEngine(db, registry)
    with ServiceThread(engine) as handle:
        client = ServiceClient(handle.base_url)
        try:
            # One batch warm-up: plans + reserved shared prefixes.
            assert client.cite_batch(_overlap_queries()).status == 200
            started = time.perf_counter()
            for text in stream:
                assert client.cite(text).status == 200
            warm_elapsed = time.perf_counter() - started
            stats = client.stats()
        finally:
            client.close()

    engine_stats = stats["engine"]
    assert engine_stats["plan_cache"]["hits"] >= REQUESTS
    assert engine_stats["subplan_memo"]["hits"] > 0
    assert engine_stats["subplan_memo"]["reserved"] > 0
    latency = stats["service"]["endpoints"]["POST /cite"]["latency"]
    assert latency["count"] == REQUESTS

    speedup = cold_elapsed / warm_elapsed
    assert speedup >= 1.5, (
        f"warm service {warm_elapsed:.3f}s vs cold engines "
        f"{cold_elapsed:.3f}s — only {speedup:.2f}×"
    )


def test_e17_concurrent_clients_share_one_batch(quick):
    """Cross-client micro-batching on the wire: requests that queue
    behind a running lane job coalesce into fewer engine batches
    (visible in /stats)."""
    import threading

    db, registry = _overlap_setup(quick)
    engine = CitationEngine(db, registry)
    original = engine.cite_batch
    occupied, release = threading.Event(), threading.Event()

    def held_cite_batch(queries):
        if not occupied.is_set():
            occupied.set()
            release.wait(30.0)
        return original(queries)

    engine.cite_batch = held_cite_batch
    texts = _overlap_queries()
    clients = len(texts)
    with ServiceThread(engine) as handle:
        statuses = []

        def one(text):
            client = ServiceClient(handle.base_url)
            try:
                statuses.append(client.cite(text).status)
            finally:
                client.close()

        threads = [
            threading.Thread(target=one, args=(text,)) for text in texts
        ]
        threads[0].start()
        observer = ServiceClient(handle.base_url)
        try:
            assert occupied.wait(10.0)
            for thread in threads[1:]:
                thread.start()
            # The other clients queue behind the held batch.
            deadline = time.monotonic() + 10.0
            while (
                observer.stats()["admission"]["outstanding"] < clients
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            batching = observer.stats()["service"]["batching"]
        finally:
            release.set()
            observer.close()
    assert statuses == [200] * clients
    assert batching["batched_requests"] == clients
    assert batching["batches_executed"] < clients


def test_e17_stats_expose_every_cache(quick):
    """/stats is the observability contract: every shared cache reports
    hit/miss/eviction counters plus latency telemetry."""
    db, registry = _overlap_setup(True)  # smallest instance: shape only
    engine = CitationEngine(db, registry)
    with ServiceThread(engine) as handle:
        client = ServiceClient(handle.base_url)
        try:
            client.cite_batch(_overlap_queries())
            # One single-query request: rides the lane's cite path, so
            # the micro-batching counters tick too.
            client.cite(_overlap_queries()[0])
            stats = client.stats()
        finally:
            client.close()
    engine_stats = stats["engine"]
    for cache in ("plan_cache", "rewriting_cache", "subplan_memo"):
        assert {"hits", "misses", "evictions"} <= set(engine_stats[cache])
    assert stats["service"]["batching"]["batches_executed"] >= 1
