"""Tests for batch workload execution (repro.workload.runner)."""

import pytest

from repro.citation.cache import CachedRewritingEngine
from repro.citation.generator import CitationEngine
from repro.gtopdb.sample import paper_database
from repro.views.registry import ViewRegistry
from repro.workload.logs import QueryLog
from repro.workload.runner import WorkloadReport, run_workload

QUERIES = [
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
    'Q(M) :- Family(G, M, T2), T2 = "gpcr"',  # α-equivalent to the first
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
]


@pytest.fixture
def engine(db, registry):
    return CitationEngine(db, registry)


class TestRunWorkload:
    def test_results_match_single_cites(self, db, registry, engine):
        report = run_workload(engine, QUERIES)
        assert report.queries_run == 3
        fresh = CitationEngine(db, registry)
        for query, result in zip(QUERIES, report.results):
            single = fresh.cite(query)
            assert set(result.tuples) == set(single.tuples)
            for output in single.tuples:
                assert result.tuples[output].polynomial == \
                    single.tuples[output].polynomial

    def test_alpha_equivalent_queries_hit_caches(self, engine):
        report = run_workload(engine, QUERIES)
        assert report.rewriting_hits >= 1
        assert report.plan_hits >= 1
        assert 0.0 < report.rewriting_hit_rate <= 1.0

    def test_engine_caches_rewritings_from_construction(self, engine):
        rewriter = engine.rewriting_engine
        assert isinstance(rewriter, CachedRewritingEngine)
        run_workload(engine, QUERIES[:1])
        assert engine.rewriting_engine is rewriter

    def test_second_batch_starts_warm(self, engine):
        run_workload(engine, QUERIES)
        warm = run_workload(engine, QUERIES)
        assert warm.rewriting_misses == 0
        assert warm.plan_misses == 0

    def test_query_log_with_frequencies(self, engine):
        log = QueryLog()
        log.record(QUERIES[0], frequency=5)
        log.record(QUERIES[2], frequency=2)
        distinct = run_workload(engine, log)
        assert distinct.queries_run == 2
        repeated = run_workload(engine, log, repeat_frequencies=True)
        assert repeated.queries_run == 7
        # Raw traffic is almost entirely cache hits.
        assert repeated.rewriting_hits == 7

    def test_describe_mentions_caches(self, engine):
        report = run_workload(engine, QUERIES)
        text = report.describe()
        assert "rewriting cache" in text and "plan cache" in text


class TestCounterAccounting:
    """Regression tests for the cache-accounting sweep: counters must be
    snapshotted from the engine the batch actually uses, and frequency-k
    traffic must show exactly k-1 hits per log entry."""

    def test_repeat_frequency_k_shows_k_minus_one_hits(self, db):
        # An empty registry gives exactly one (identity) rewriting per
        # query, so the per-entry arithmetic is exact: one miss on the
        # first occurrence, k-1 hits on the repeats — for the rewriting
        # cache and the plan cache alike.
        engine = CitationEngine(db, ViewRegistry(db.schema))
        log = QueryLog()
        log.record(QUERIES[0], frequency=5)
        report = run_workload(engine, log, repeat_frequencies=True)
        assert report.queries_run == 5
        assert report.rewriting_misses == 1
        assert report.rewriting_hits == 4
        assert report.plan_misses == 1
        assert report.plan_hits == 4

    def test_repeat_frequencies_with_views_show_k_minus_one_per_structure(
        self, db, registry
    ):
        engine = CitationEngine(db, registry)
        log = QueryLog()
        log.record(QUERIES[0], frequency=5)
        report = run_workload(engine, log, repeat_frequencies=True)
        assert report.rewriting_misses == 1
        assert report.rewriting_hits == 4
        # Every distinct rewriting structure misses once and hits on the
        # four repeats.  One-shot plans also flow through the shared
        # planner now — view materialization and per-token citation
        # queries — adding misses (and α-equivalence hits between views
        # sharing a body, e.g. V1/V3/V4 over Family) on this cold run.
        rewriting_plans = len(report.results[0].rewritings)
        assert report.plan_hits >= 4 * rewriting_plans
        assert report.plan_misses >= rewriting_plans
        # A second identical run is fully warm: the one-shot plans are
        # served from the engine's caches, the repeats from the planner.
        warm = run_workload(engine, log, repeat_frequencies=True)
        assert warm.plan_misses == 0
        assert warm.plan_hits == 5 * rewriting_plans

    def test_snapshot_from_pre_upgraded_engine(self, db, registry):
        # Counters accumulated *outside* the workload must not leak into
        # the report.
        engine = CitationEngine(db, registry)
        engine.cite(QUERIES[0])
        engine.cite(QUERIES[0])
        assert engine.rewriting_engine.hits >= 1
        report = run_workload(engine, [QUERIES[0]])
        assert report.rewriting_hits == 1
        assert report.rewriting_misses == 0

    def test_snapshot_on_a_fresh_engine(self, db, registry):
        # A fresh engine's counters start at zero, so the report covers
        # exactly the run's own lookups.
        engine = CitationEngine(db, registry)
        report = run_workload(engine, QUERIES)
        assert report.rewriting_misses == 2  # two distinct structures
        assert report.rewriting_hits == 1  # one α-equivalent repeat


class TestDescribeOnCoarseClocks:
    def test_zero_elapsed_keeps_counts_and_cache_rates(self):
        report = WorkloadReport(
            queries_run=5,
            elapsed_seconds=0.0,
            rewriting_hits=3,
            rewriting_misses=2,
            plan_hits=6,
            plan_misses=4,
        )
        text = report.describe()
        assert "5 queries" in text
        assert "rewriting cache 3/5 hits" in text
        assert "plan cache 6/10 hits" in text
        assert "q/s" not in text

    def test_zero_elapsed_renders_subplan_counters_when_present(self):
        report = WorkloadReport(
            queries_run=2,
            elapsed_seconds=0.0,
            subplan_hits=1,
            subplan_misses=1,
        )
        assert "subplan memo 1/2 hits" in report.describe()

    def test_positive_elapsed_keeps_rate_figure(self):
        report = WorkloadReport(queries_run=4, elapsed_seconds=2.0)
        text = report.describe()
        assert "2.0 q/s" in text


class TestUnionRouting:
    """Mixed workloads: CQs and unions cite in one batch, in order."""

    UNION = ('Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
             'Q(N) :- Family(F, N, Ty), Ty = "vgic"')

    def test_results_in_workload_order(self, db, registry):
        engine = CitationEngine(db, registry)
        workload = [QUERIES[0], self.UNION, QUERIES[1]]
        report = run_workload(engine, workload)
        assert report.queries_run == 3
        assert len(report.results) == 3
        # Union result carries rows from both disjuncts; its neighbours
        # match citing the CQs individually.
        union_names = {t[0] for t in report.results[1].tuples}
        assert "Calcitonin" in union_names and "CatSper" in union_names
        solo = CitationEngine(db, registry)
        assert (
            list(report.results[0].tuples)
            == list(solo.cite(QUERIES[0]).tuples)
        )
        assert (
            list(report.results[2].tuples)
            == list(solo.cite(QUERIES[1]).tuples)
        )

    def test_per_class_counters(self, db, registry):
        from repro.cq.ucq import parse_union_query

        engine = CitationEngine(db, registry)
        report = run_workload(engine, [
            QUERIES[0],
            self.UNION,
            parse_union_query(self.UNION),
            QUERIES[1],
        ])
        assert report.per_class == {"cq": 2, "ucq": 2}
        assert "[cq=2, ucq=2]" in report.describe()

    def test_quoted_separator_is_one_cq(self, registry):
        db = paper_database()
        db.insert("Family", "99", "Semi", "a;b")
        engine = CitationEngine(db, registry)
        report = run_workload(
            engine, ['Q(N) :- Family(F, N, Ty), Ty = "a;b"']
        )
        assert report.per_class == {"cq": 1}
        assert list(report.results[0].tuples) == [("Semi",)]

    def test_single_class_workload_omits_breakdown(self, db, registry):
        engine = CitationEngine(db, registry)
        report = run_workload(engine, [QUERIES[0]])
        assert report.per_class == {"cq": 1}
        assert "[cq=" not in report.describe()

    def test_union_only_workload(self, db, registry):
        engine = CitationEngine(db, registry)
        report = run_workload(engine, [self.UNION, self.UNION])
        assert report.per_class == {"ucq": 2}
        assert len(report.results) == 2
        assert (
            list(report.results[0].tuples)
            == list(report.results[1].tuples)
        )
