"""Cross-query sub-plan sharing: one shared join prefix, many queries.

Run with::

    python -m examples.subplan_sharing

The paper's deployment is a repository front-end answering heavy,
template-shaped citation traffic (Section 4, "caching and
materialization").  Such batches overlap *structurally*: different
queries often plan to the same first join steps — the same shared
prefix — and differ only in a final probe.  The per-query caches
(rewriting enumeration, α-equivalent plans, warmed indexes) still
re-evaluate that prefix once per query; the sub-plan memo
(:mod:`repro.cq.subplan`) evaluates it once per *batch*.

This walk-through builds a three-hop join prefix shared by six queries,
shows the prefix keys and the ``shared prefix: ... reused from memo``
EXPLAIN line, runs the batch through ``cite_batch`` and against citing
each query in its own call (one plan per call, so nothing is shared),
and reports the hit counters and the steady-state speedup.
"""

import time

from repro.citation.generator import CitationEngine
from repro.cq.parser import parse_query
from repro.cq.plan import prefix_keys
from repro.cq.subplan import explain_with_memo
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema
from repro.views.registry import ViewRegistry
from repro.workload.runner import run_workload

#: Queries in the batch; each shares the Hop1 ⋈ Hop2 ⋈ Hop3 prefix and
#: ends with its own suffix probe.
SUFFIXES = 6


def build_database() -> Database:
    """A fan-out/fan-in join prefix with per-query suffix relations.

    ``Hop1 ⋈ Hop2`` expands (10 hub values fanning out 30 ways), then
    ``Hop3`` contracts to a 10% sliver — the prefix does far more work
    than its output size, which is exactly when evaluating it once per
    batch pays.  Junk rows keep the suffix relations large enough that
    the cost-based planner schedules them last.
    """
    suffixes = [f"Suf{i}" for i in range(SUFFIXES)]
    schema = Schema(
        [
            RelationSchema("Hop1", ["x", "y"]),
            RelationSchema("Hop2", ["y", "z"]),
            RelationSchema("Hop3", ["z", "w"]),
        ]
        + [RelationSchema(name, ["w", "t"]) for name in suffixes]
    )
    db = Database(schema)
    batches = {
        "Hop1": [(x, x % 10) for x in range(300)],
        "Hop2": [(y, y * 30 + k) for y in range(10) for k in range(30)],
        "Hop3": [(z, z + 1000) for z in range(0, 300, 10)]
        + [(-z - 1, -z) for z in range(5000)],
    }
    for index, name in enumerate(suffixes):
        batches[name] = [(w + 1000, w + index) for w in range(0, 300, 30)] \
            + [(-w - 1, -w) for w in range(1000)]
    db.insert_batch(batches)
    return db


def batch_queries() -> list[str]:
    return [
        f"Q(X, T) :- Hop1(X, Y), Hop2(Y, Z), Hop3(Z, W), Suf{i}(W, T)"
        for i in range(SUFFIXES)
    ]


def main() -> None:
    db = build_database()
    registry = ViewRegistry(db.schema)
    queries = batch_queries()

    print("== The overlapping batch")
    for text in queries:
        print(f"  {text}")

    engine = CitationEngine(db, registry)
    report = run_workload(engine, queries)
    print("\n== First batch (cold memo)")
    print(report.describe())

    print("\n== Prefix keys: the plans share their first three steps")
    plans = [engine.planner.plan(parse_query(text)) for text in queries[:2]]
    keys = [prefix_keys(plan)[0] for plan in plans]
    for length in range(1, 5):
        shared = keys[0][length - 1] == keys[1][length - 1]
        print(f"  prefix of length {length}: "
              f"{'shared' if shared else 'per-query'}")

    print("\n== EXPLAIN with the warmed memo")
    print(explain_with_memo(plans[0], engine.subplan_memo, db,
                            engine.materialized_views()))

    print("\n== Second batch (warm memo: every shared prefix seeds)")
    print(run_workload(engine, queries).describe())

    print("\n== Steady-state timing: one batch vs one call per query")

    def steady(cite_all) -> float:
        timed = CitationEngine(db, registry)
        cite_all(timed)  # warm every cache
        best = None
        for __ in range(3):
            started = time.perf_counter()
            cite_all(timed)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    shared = steady(lambda engine: engine.cite_batch(queries))
    unshared = steady(
        lambda engine: [engine.cite(query) for query in queries]
    )
    print(f"  shared   {shared:.4f}s per batch")
    print(f"  unshared {unshared:.4f}s per batch")
    print(f"  speedup  {unshared / shared:.1f}x")


if __name__ == "__main__":
    main()
