"""E16 (planner): cost-based join ordering vs the greedy evaluator.

The planner refactor split evaluation into statistics → plan → execute
(:mod:`repro.cq.plan`, :mod:`repro.cq.executor`); the old stats-blind
greedy interpreter survives as
:func:`repro.cq.evaluation.reference_bindings`.  Following the
cross-workload discipline of "CAN We Trust Your Results?" (PAPERS.md),
this benchmark checks the planner on *every* E8/E9 scaling shape — the
planned executor must never be slower in steady state — and demonstrates
the headline win on a skewed multi-join where greedy order starts from
the large relation.
"""

import time

import pytest

from repro.cq.evaluation import (
    enumerate_bindings,
    evaluate_query,
    reference_bindings,
)
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner
from repro.gtopdb.generator import generate_database
from repro.gtopdb.sample import paper_database
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema

#: The E8/E9 workload query (also used by bench_e8/bench_e9).
E8_E9_QUERY = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'

E9_SIZES = [100, 400, 1600]

#: Steady-state repetitions: plans amortize across repeated traffic,
#: which is the deployment model (repository front-ends).
REPEATS = 10


def _scaled(size: int, quick: bool, floor: int = 50) -> int:
    """Shrink an instance size under ``--quick`` (assertions kept)."""
    return max(floor, size // 5) if quick else size


def _best_of(callable_, rounds=3):
    best = None
    for __ in range(rounds):
        started = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _drain_planned(query, db, planner):
    def run():
        for __ in range(REPEATS):
            for __binding in enumerate_bindings(query, db, planner=planner):
                pass
    return run


def _drain_greedy(query, db):
    def run():
        for __ in range(REPEATS):
            for __binding in reference_bindings(query, db):
                pass
    return run


def _e8_e9_shapes(quick=False):
    """(label, db, query) for every E8/E9 scaling shape."""
    shapes = [("e8-paper-db", paper_database(), parse_query(E8_E9_QUERY))]
    for size in E9_SIZES:
        size = _scaled(size, quick)
        db = generate_database(families=size, persons=size // 2, seed=29)
        shapes.append((f"e9-{size}", db, parse_query(E8_E9_QUERY)))
    return shapes


def skewed_database(probe_rows: int = 20000) -> Database:
    """A skewed multi-join instance: Probe is huge, Tiny/Mid are small.

    Only a sliver of Probe joins with Tiny, so starting the join from
    Probe (what the stats-blind greedy order does — no atom shares
    variables initially, so it keeps the original atom order) does
    ``probe_rows`` index probes, while the cost-based order starts from
    Tiny and touches only the matching sliver.
    """
    schema = Schema([
        RelationSchema("Probe", ["a", "b"]),
        RelationSchema("Tiny", ["b", "c"]),
        RelationSchema("Mid", ["c", "d"]),
    ])
    db = Database(schema)
    db.insert_batch({
        "Probe": [(i, i % 1000) for i in range(probe_rows)],
        "Tiny": [(b, b * 10) for b in range(5)],
        "Mid": [(c, c + 1) for c in range(0, 50, 10)],
    })
    return db


SKEWED_QUERY = "Q(A, D) :- Probe(A, B), Tiny(B, C), Mid(C, D)"


def selective_equality_database(rows: int = 20000,
                                matching: int = 20) -> Database:
    """The comparison-pushdown shape: a selective equality on a wide scan.

    Only ``matching`` of ``rows`` tuples carry the rare type, so
    ``Ty = "rare"`` as a *post-filter* scans everything while the pushed
    version probes the hash index on the Ty column and touches only the
    matching sliver.
    """
    schema = Schema([RelationSchema("Wide", ["a", "b", "ty"])])
    db = Database(schema)
    db.insert_batch({
        "Wide": [
            (i, i % 100, "rare" if i < matching else "common")
            for i in range(rows)
        ],
    })
    return db


SELECTIVE_QUERY = 'Q(A, B) :- Wide(A, B, Ty), Ty = "rare"'


# ---------------------------------------------------------------------------
# Timing (pytest-benchmark)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", E9_SIZES)
def test_e16_planned_executor_time_vs_data(benchmark, size, quick):
    size = _scaled(size, quick)
    db = generate_database(families=size, persons=size // 2, seed=29)
    query = parse_query(E8_E9_QUERY)
    planner = QueryPlanner(db)
    result = benchmark(
        lambda: sum(1 for __ in enumerate_bindings(query, db,
                                                   planner=planner))
    )
    assert result > 0
    benchmark.extra_info["families"] = size


def test_e16_skewed_multijoin_planned(benchmark, quick):
    db = skewed_database(_scaled(20000, quick, floor=4000))
    query = parse_query(SKEWED_QUERY)
    planner = QueryPlanner(db)
    bindings = benchmark(
        lambda: sum(1 for __ in enumerate_bindings(query, db,
                                                   planner=planner))
    )
    benchmark.extra_info["bindings"] = bindings


# ---------------------------------------------------------------------------
# Shape claims
# ---------------------------------------------------------------------------


def test_e16_planned_no_slower_on_every_e8_e9_shape(quick):
    """Steady-state planned execution is never slower than greedy on the
    E8/E9 scaling shapes (10% tolerance for timer noise)."""
    for label, db, query in _e8_e9_shapes(quick):
        planner = QueryPlanner(db)
        planned = _best_of(_drain_planned(query, db, planner))
        greedy = _best_of(_drain_greedy(query, db))
        assert planned <= greedy * 1.10, (
            f"{label}: planned {planned:.6f}s vs greedy {greedy:.6f}s"
        )


def test_e16_planned_results_match_greedy_on_every_shape(quick):
    for label, db, query in _e8_e9_shapes(quick) + [
        ("skewed", skewed_database(2000), parse_query(SKEWED_QUERY))
    ]:
        planner = QueryPlanner(db)
        planned = sorted(
            tuple(sorted((v.name, val) for v, val in b.items()))
            for b in enumerate_bindings(query, db, planner=planner)
        )
        greedy = sorted(
            tuple(sorted((v.name, val) for v, val in b.items()))
            for b in reference_bindings(query, db)
        )
        assert planned == greedy, label


def test_e16_skewed_multijoin_speedup(quick):
    """The headline claim: ≥1.5× over greedy join order on a multi-join
    with skewed relation sizes (in practice the gap is ~10-100×)."""
    db = skewed_database(_scaled(20000, quick, floor=4000))
    query = parse_query(SKEWED_QUERY)
    planner = QueryPlanner(db)
    planner.plan(query)  # warm the plan cache: steady-state comparison

    planned = _best_of(_drain_planned(query, db, planner))
    greedy = _best_of(_drain_greedy(query, db))
    speedup = greedy / planned
    assert speedup >= 1.5, (
        f"planned {planned:.6f}s, greedy {greedy:.6f}s, "
        f"speedup {speedup:.2f}x"
    )


def test_e16_plan_cache_amortizes_planning():
    """Replanning the same structure hits the α-equivalence cache."""
    db = skewed_database(2000)
    planner = QueryPlanner(db)
    planner.plan(parse_query(SKEWED_QUERY))
    planner.plan(parse_query("Q(X, W) :- Probe(X, Y), Tiny(Y, Z), Mid(Z, W)"))
    assert planner.hits == 1 and planner.misses == 1


# ---------------------------------------------------------------------------
# Comparison pushdown (selective-equality shape)
# ---------------------------------------------------------------------------


def test_e16_selective_equality_is_pushed_into_access_path():
    """The plan shape behind the speedup: the equality is absorbed by the
    index probe, nothing is left to post-filter."""
    db = selective_equality_database(rows=2000)
    plan = QueryPlanner(db).plan(parse_query(SELECTIVE_QUERY))
    step = plan.steps[0]
    assert 2 in step.lookup_positions
    assert not step.comparisons
    assert plan.pushed
    text = plan.explain()
    assert "pushed predicates:" in text
    assert "index on [2]" in text


def test_e16_selective_equality_pushdown_speedup(benchmark, quick):
    """The pushdown claim: ≥1.5× over scan-and-filter on a selective
    equality (in practice the gap tracks rows/matching, ~100×+)."""
    db = selective_equality_database(rows=_scaled(20000, quick, floor=4000))
    query = parse_query(SELECTIVE_QUERY)
    planner = QueryPlanner(db)
    planner.plan(query)  # warm the plan cache: steady-state comparison

    bindings = benchmark(
        lambda: sum(1 for __ in enumerate_bindings(query, db,
                                                   planner=planner))
    )
    assert bindings == 20

    planned = _best_of(_drain_planned(query, db, planner))
    greedy = _best_of(_drain_greedy(query, db))
    speedup = greedy / planned
    assert speedup >= 1.5, (
        f"planned {planned:.6f}s, greedy {greedy:.6f}s, "
        f"speedup {speedup:.2f}x"
    )


# ---------------------------------------------------------------------------
# Range pushdown (selective-range shape, ordered access paths)
# ---------------------------------------------------------------------------


#: Rows matched by the selective-range shape (the interval's width).
RANGE_MATCHING = 20


def selective_range_database(rows: int = 20000) -> Database:
    """The range-pushdown shape: a selective inequality on a wide scan.

    The K column is unique and uniform, so ``K < RANGE_MATCHING`` as a
    *post-filter* scans all ``rows`` tuples while the pushed version
    bisects the sorted index on K and touches only the matching sliver.
    """
    schema = Schema([RelationSchema("Wide", ["a", "b", "k"])])
    db = Database(schema)
    db.insert_batch({
        "Wide": [(i, i % 100, i) for i in range(rows)],
    })
    return db


SELECTIVE_RANGE_QUERY = f"Q(A, B) :- Wide(A, B, K), K < {RANGE_MATCHING}"


def test_e16_selective_range_is_pushed_into_ordered_path():
    """The plan shape behind the speedup: the inequality becomes an
    ordered (sorted-index) access path, rendered separately from the
    residual re-check in EXPLAIN."""
    db = selective_range_database(rows=2000)
    plan = QueryPlanner(db).plan(parse_query(SELECTIVE_RANGE_QUERY))
    step = plan.steps[0]
    assert step.range_position == 2
    assert step.range_interval.hi == RANGE_MATCHING
    assert step.range_interval.hi_open
    assert plan.pushed_ranges
    text = plan.explain()
    assert "pushed predicates:" in text
    assert "ordered index on [2]" in text


def test_e16_selective_range_pushdown_speedup(benchmark, quick):
    """The range-pushdown claim: ≥1.5× over scan-and-filter on a
    selective inequality (in practice the gap tracks rows/matching,
    ~100×+: bisect + sliver vs full scan)."""
    db = selective_range_database(rows=_scaled(20000, quick, floor=4000))
    query = parse_query(SELECTIVE_RANGE_QUERY)
    planner = QueryPlanner(db)
    planner.plan(query)  # warm the plan cache: steady-state comparison

    bindings = benchmark(
        lambda: sum(1 for __ in enumerate_bindings(query, db,
                                                   planner=planner))
    )
    assert bindings == RANGE_MATCHING

    planned = _best_of(_drain_planned(query, db, planner))
    greedy = _best_of(_drain_greedy(query, db))
    speedup = greedy / planned
    assert speedup >= 1.5, (
        f"planned {planned:.6f}s, greedy {greedy:.6f}s, "
        f"speedup {speedup:.2f}x"
    )


# ---------------------------------------------------------------------------
# Composite pushdown (equality + range served by one probe)
# ---------------------------------------------------------------------------


#: Rows matched by the composite shape (half the range interval's width).
COMPOSITE_MATCHING = 20


def composite_database(rows: int = 20000) -> Database:
    """The composite-pushdown shape: equality + range, each unselective
    alone, highly selective together.

    Half the rows carry the hot type and K is unique/uniform, so a hash
    probe on ``Ty = "hot"`` alone still hands ``rows/2`` tuples to the
    residual ``K < 2 * COMPOSITE_MATCHING`` filter, while the composite
    probe bisects inside the hot bucket and touches only the
    ``COMPOSITE_MATCHING`` matching tuples.
    """
    schema = Schema([RelationSchema("Wide", ["a", "ty", "k"])])
    db = Database(schema)
    db.insert_batch({
        "Wide": [
            (i, "hot" if i % 2 == 0 else "cold", i) for i in range(rows)
        ],
    })
    return db


COMPOSITE_QUERY = (
    f'Q(A) :- Wide(A, Ty, K), Ty = "hot", K < {2 * COMPOSITE_MATCHING}'
)


def _single_index_plan(plan):
    """The same plan with the range narrowing stripped: the hash probe
    plus residual filtering that single-index pushdown (PR 3) executed."""
    import dataclasses

    steps = tuple(
        dataclasses.replace(step, range_position=None, range_interval=None)
        for step in plan.steps
    )
    return dataclasses.replace(plan, steps=steps)


def test_e16_composite_shape_is_one_probe():
    """The plan shape behind the speedup: equality and range land on one
    composite access path, rendered once in EXPLAIN."""
    db = composite_database(rows=2000)
    plan = QueryPlanner(db).plan(parse_query(COMPOSITE_QUERY))
    step = plan.steps[0]
    assert step.path_kind == "composite"
    assert step.lookup_positions == (1,)
    assert step.range_position == 2
    text = plan.explain()
    assert "pushed predicates:" in text
    assert "composite index on [1]" in text
    # One access path serves both predicates — EXPLAIN never implies two
    # separate probes for one step.
    assert len([
        line for line in text.splitlines()
        if line.strip().startswith("step ")
    ]) == 1


def test_e16_composite_pushdown_speedup_over_single_index(benchmark, quick):
    """The composite claim: ≥1.5× over single-index pushdown (hash probe
    + residual range filter) on the equality+range shape (in practice
    the gap tracks bucket/matching, ~100×+: in-bucket bisect vs
    filtering the whole hot bucket)."""
    from repro.cq.executor import execute_plan

    db = composite_database(rows=_scaled(20000, quick, floor=4000))
    query = parse_query(COMPOSITE_QUERY)
    planner = QueryPlanner(db)
    composite_plan = planner.plan(query)
    single_plan = _single_index_plan(composite_plan)
    assert composite_plan.steps[0].path_kind == "composite"
    assert single_plan.steps[0].path_kind == "hash"

    def drain(plan):
        def run():
            for __ in range(REPEATS):
                for __binding in execute_plan(plan, db):
                    pass
        return run

    drain(composite_plan)()  # warm the composite index
    drain(single_plan)()  # warm the hash index

    bindings = benchmark(
        lambda: sum(1 for __ in execute_plan(composite_plan, db))
    )
    assert bindings == COMPOSITE_MATCHING
    assert bindings == sum(1 for __ in execute_plan(single_plan, db))

    composite = _best_of(drain(composite_plan))
    single = _best_of(drain(single_plan))
    speedup = single / composite
    assert speedup >= 1.5, (
        f"composite {composite:.6f}s, single-index {single:.6f}s, "
        f"speedup {speedup:.2f}x"
    )


def test_e16_empty_interval_short_circuits_without_touching_data(quick):
    """A contradictory range pair plans to a provably empty result: no
    probes, no bindings, at any data size."""
    db = selective_range_database(rows=_scaled(20000, quick, floor=4000))
    query = parse_query("Q(A, B) :- Wide(A, B, K), K < 10, K > 90")
    planner = QueryPlanner(db)
    plan = planner.plan(query)
    assert plan.empty
    assert list(enumerate_bindings(query, db, planner=planner)) == []


# ---------------------------------------------------------------------------
# Cross-query sub-plan sharing (batch-overlap shape)
# ---------------------------------------------------------------------------


#: Queries in the overlapping batch (each with its own suffix relation).
OVERLAP_SUFFIXES = 6


def overlap_database(hop1_rows: int = 300, junk: int = 5000) -> Database:
    """The batch-overlap shape: an expensive 3-step join prefix shared by
    every query of a batch, with per-query suffix probes.

    ``Hop1 ⋈ Hop2`` expands (each of 10 hub values fans out 30 ways,
    ~30× the Hop1 rows), ``Hop3`` then contracts to a 10% sliver — so
    the prefix does far more work than its output size, which is exactly
    when evaluating it once per *batch* instead of once per *query*
    pays.  The suffix relations (and Hop3) carry junk rows so the greedy
    planner never schedules them ahead of the prefix.
    """
    suffixes = [f"Suf{i}" for i in range(OVERLAP_SUFFIXES)]
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
        "Hop1": [(x, x % 10) for x in range(hop1_rows)],
        "Hop2": [(y, y * 30 + k) for y in range(10) for k in range(30)],
        "Hop3": [(z, z + 1000) for z in range(0, 300, 10)]
        + [(-z - 1, -z) for z in range(junk)],
    }
    for index, name in enumerate(suffixes):
        batches[name] = [
            (w + 1000, w + index) for w in range(0, 300, 30)
        ] + [(-w - 1, -w) for w in range(junk // 5)]
    db.insert_batch(batches)
    return db


def _overlap_queries() -> list[str]:
    return [
        f"Q(X, T) :- Hop1(X, Y), Hop2(Y, Z), Hop3(Z, W), Suf{i}(W, T)"
        for i in range(OVERLAP_SUFFIXES)
    ]


def test_e16_batch_overlap_plans_share_their_prefix():
    """The plan shape behind the speedup: every query of the batch plans
    to the same 3-step prefix (prefix keys equal), differing only in the
    suffix probe, and EXPLAIN reports the reuse."""
    from repro.citation.generator import CitationEngine
    from repro.cq.plan import prefix_keys
    from repro.cq.subplan import explain_with_memo
    from repro.views.registry import ViewRegistry

    db = overlap_database(hop1_rows=100, junk=500)
    registry = ViewRegistry(db.schema)
    engine = CitationEngine(db, registry)
    queries = _overlap_queries()
    engine.cite_batch(queries)
    plans = [engine.planner.plan(parse_query(q)) for q in queries]
    key_sets = [prefix_keys(plan)[0] for plan in plans]
    for keys in key_sets[1:]:
        assert keys[:3] == key_sets[0][:3]  # shared 3-step prefix
        assert keys[3] != key_sets[0][3]  # per-query suffix
    assert engine.subplan_memo.hits > 0
    text = explain_with_memo(plans[0], engine.subplan_memo, db)
    assert "shared prefix: steps 1-3 reused from memo" in text


def test_e16_batch_overlap_sharing_speedup(benchmark, quick):
    """The sub-plan sharing claim: a batch of α-overlapping queries runs
    ≥1.5× faster when each shared join prefix is evaluated once than
    when each query is cited in its own call, whose one plan shares
    nothing (in practice ~3× on this shape: the prefix is ~10× the
    suffix work)."""
    from repro.citation.generator import CitationEngine
    from repro.views.registry import ViewRegistry

    db = overlap_database(
        hop1_rows=_scaled(300, quick, floor=100),
        junk=_scaled(5000, quick, floor=1000),
    )
    registry = ViewRegistry(db.schema)
    queries = _overlap_queries()

    def batched(engine):
        return engine.cite_batch(queries)

    def one_by_one(engine):
        return [engine.cite(query) for query in queries]

    shared_engine = CitationEngine(db, registry)
    unshared_engine = CitationEngine(db, registry)
    batched(shared_engine)  # warm every cache (steady state)
    one_by_one(unshared_engine)
    assert shared_engine.subplan_memo.hits > 0
    assert unshared_engine.subplan_memo.hits == 0

    # Sharing never changes results: same tuples, same polynomials.
    for left, right in zip(
        batched(shared_engine), one_by_one(unshared_engine)
    ):
        assert left.citation() == right.citation()

    benchmark(batched, shared_engine)
    benchmark.extra_info["subplan_hits"] = shared_engine.subplan_memo.hits
    benchmark.extra_info["subplan_misses"] = (
        shared_engine.subplan_memo.misses
    )

    shared = _best_of(lambda: batched(shared_engine))
    unshared = _best_of(lambda: one_by_one(unshared_engine))
    speedup = unshared / shared
    assert speedup >= 1.5, (
        f"shared {shared:.6f}s, unshared {unshared:.6f}s, "
        f"speedup {speedup:.2f}x"
    )


def test_e16_batch_overlap_subplan_hits_in_workload_report(quick):
    """run_workload surfaces the memo's effectiveness: subplan_hits > 0
    on the overlapping batch, and describe() renders the counters."""
    from repro.citation.generator import CitationEngine
    from repro.views.registry import ViewRegistry
    from repro.workload.runner import run_workload

    db = overlap_database(hop1_rows=100, junk=500)
    engine = CitationEngine(db, ViewRegistry(db.schema))
    report = run_workload(engine, _overlap_queries())
    assert report.subplan_hits > 0
    assert 0.0 < report.subplan_hit_rate <= 1.0
    assert "subplan memo" in report.describe()


# ---------------------------------------------------------------------------
# Planned UCQ evaluation (union-overlap shape)
# ---------------------------------------------------------------------------


def _overlap_union():
    """The batch-overlap queries restated as one union: six disjuncts
    sharing the expensive 3-hop prefix, each with its own suffix probe
    (the same contraction recipe as the batch shape above)."""
    from repro.cq.ucq import UnionQuery

    return UnionQuery([parse_query(text) for text in _overlap_queries()])


def _seed_union_reference(union, db):
    """The seed-era UCQ path: one stand-alone ``evaluate_query`` per
    disjunct (no shared planner, no memo), first-derivation dedup."""
    seen = {}
    for disjunct in union.disjuncts:
        for row in evaluate_query(disjunct, db):
            seen.setdefault(row)
    return list(seen)


def test_e16_ucq_overlap_disjuncts_share_their_prefix():
    """The plan shape behind the speedup: every disjunct plans through
    the shared planner, the memo reserves the common 3-hop prefix, and
    the union's EXPLAIN reports the reuse per disjunct."""
    from repro.cq.subplan import SubplanMemo

    db = overlap_database(hop1_rows=100, junk=500)
    union = _overlap_union()
    planner = QueryPlanner(db)
    memo = SubplanMemo()
    union.evaluate(db, planner, memo)
    assert planner.misses == len(union)  # every disjunct planned once
    assert memo.hits >= len(union) - 1  # later disjuncts seed from memo
    text = union.explain(db, planner, memo)
    assert f"disjunct {len(union)}/{len(union)}" in text
    assert "shared prefix: steps 1-3 reused from memo" in text


def test_e16_ucq_overlap_planned_union_speedup(benchmark, quick):
    """The UCQ claim: a union of 6 disjuncts sharing a 3-hop join
    prefix runs ≥1.5× faster planned+memoized — the prefix materializes
    once per union — than the seed-era per-disjunct evaluation (in
    practice ~2.5× on this shape), with identical rows in identical
    order."""
    from repro.cq.subplan import SubplanMemo

    db = overlap_database(
        hop1_rows=_scaled(300, quick, floor=100),
        junk=_scaled(5000, quick, floor=1000),
    )
    union = _overlap_union()
    planner = QueryPlanner(db)
    memo = SubplanMemo()

    # Warm every cache (steady state), and pin the semantics: planned
    # union evaluation is byte-identical to the seed-era path.
    warm = union.evaluate(db, planner, memo)
    assert warm == _seed_union_reference(union, db)
    assert memo.hits > 0

    rows = benchmark(lambda: len(union.evaluate(db, planner, memo)))
    assert rows == len(warm)
    benchmark.extra_info["subplan_hits"] = memo.hits
    benchmark.extra_info["disjuncts"] = len(union)

    def drain_planned():
        union.evaluate(db, planner, memo)

    def drain_seed():
        _seed_union_reference(union, db)

    planned = _best_of(drain_planned)
    seed = _best_of(drain_seed)
    speedup = seed / planned
    assert speedup >= 1.5, (
        f"planned {planned:.6f}s, seed-era {seed:.6f}s, "
        f"speedup {speedup:.2f}x"
    )
