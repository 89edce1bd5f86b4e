"""The citation service: one warm engine shared by concurrent clients.

Run with::

    python -m examples.citation_service

The paper's deployment model is a repository front-end answering
citation traffic for many consumers (Section 4).  ``repro serve`` is
that front-end: an asyncio HTTP service multiplexing every client over
**one** shared :class:`~repro.citation.generator.CitationEngine`, so
the warm state — plan cache, rewriting cache, sub-plan memo, secondary
indexes — amortizes across all traffic instead of dying with each
consumer process.

This walk-through starts the service in-process (the same
:class:`~repro.service.ServiceThread` the tests and benchmarks use),
sends single and batched citation requests, fires four concurrent
clients and prints the micro-batching counters (single-query requests
that queue together share one engine batch), inserts a row to show a write applied as a row delta (cached
records it did not change stay warm), and reads the ``/stats``
cache-counter deltas after each step.
"""

import threading

from repro.citation.generator import CitationEngine
from repro.citation.policy import focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.service import ServiceClient, ServiceThread

GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
VGIC = 'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
JOIN = "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)"
#: Its three rewritings (V1, V3 or V4 joined with the FC rows of p1)
#: tie under the focused order, so all three are planned, and their
#: plans share the FC prefix.
MEMBER = 'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p1"'


def cache_counters(stats):
    engine = stats["engine"]
    return {
        "plan": engine["plan_cache"],
        "rewriting": engine["rewriting_cache"],
        "subplan": engine["subplan_memo"],
    }


def show_delta(label, before, after):
    parts = []
    for name in ("plan", "rewriting", "subplan"):
        hits = after[name]["hits"] - before[name]["hits"]
        misses = after[name]["misses"] - before[name]["misses"]
        parts.append(f"{name} +{hits} hits/+{misses} misses")
    print(f"   {label}: " + ", ".join(parts))


def main() -> None:
    registry = paper_registry()
    engine = CitationEngine(
        paper_database(), registry, policy=focused_policy(registry)
    )

    print("== starting the service on an ephemeral port")
    with ServiceThread(engine) as handle:
        print(f"   listening on {handle.base_url}")
        client = ServiceClient(handle.base_url)

        print("\n== one citation request (POST /cite)")
        reply = client.cite(GPCR)
        citation = reply.data["citations"][0]
        print(f"   status {reply.status}, first record: {citation}")

        print("\n== the same query again: served from the warm caches")
        before = cache_counters(client.stats())
        client.cite(GPCR)
        show_delta("repeat request", before, cache_counters(client.stats()))

        print("\n== a batch (POST /cite-batch) shares one engine pass")
        before = cache_counters(client.stats())
        reply = client.cite_batch([GPCR, VGIC, MEMBER])
        print(f"   {reply.data['count']} results in one request")
        show_delta("batch", before, cache_counters(client.stats()))

        print("\n== four concurrent clients on the wire")
        barrier = threading.Barrier(4)

        def one_client(text):
            peer = ServiceClient(handle.base_url)
            try:
                barrier.wait(10.0)
                peer.cite(text)
            finally:
                peer.close()

        threads = [
            threading.Thread(target=one_client, args=(text,))
            for text in (GPCR, VGIC, GPCR, JOIN)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batching = client.stats()["service"]["batching"]
        print(
            f"   {batching['batched_requests']} single-query requests "
            f"ran as {batching['batches_executed']} engine batches "
            f"(largest carried {batching['max_batch_size']})"
        )

        print("\n== a write is a row delta (POST /insert)")
        version = client.stats()["engine"]["stats_version"]
        reply = client.insert("Family", [["F9999", "Demo family", "gpcr"]])
        print(
            f"   inserted {reply.data['inserted']} row; stats_version "
            f"{version} -> {reply.data['stats_version']}"
        )
        records = client.stats()["engine"]["record_cache"]
        tuples = client.cite(GPCR, include_tuples=True).data["tuples"]
        names = sorted(entry["tuple"][0] for entry in tuples)
        print(f"   the next citation sees it: {names}")
        after = client.stats()["engine"]["record_cache"]
        print(
            f"   records served warm: {after['hits'] - records['hits']}, "
            f"rendered: {after['misses'] - records['misses']} (the new "
            "family's own) — it has no committee, so no cached record "
            "went stale"
        )
        size = client.stats()["engine"]["plan_cache"]["size"]
        print(
            f"   plan cache kept its {size} entries — tagged with the "
            "versions of the relations each plan reads, not flushed"
        )

        print("\n== request telemetry (GET /stats)")
        endpoints = client.stats()["service"]["endpoints"]
        for name in sorted(endpoints):
            latency = endpoints[name]["latency"]
            print(
                f"   {name}: {endpoints[name]['requests']} requests, "
                f"mean {latency['mean_ms']}ms, max {latency['max_ms']}ms"
            )
        client.close()
    print("\n== service drained and stopped")


if __name__ == "__main__":
    main()
