"""Tests for the rewriting cache (Section 4: caching)."""


import pytest

from repro.citation.cache import (
    CachedRewritingEngine,
    cached_engine,
    canonical_key,
)
from repro.citation.generator import CitationEngine
from repro.cq.parser import parse_query
from repro.errors import RewritingError
from repro.rewriting.engine import RewritingEngine


class TestCanonicalKey:
    def test_alpha_equivalent_queries_share_key(self):
        q1 = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        q2 = parse_query('Q(M) :- Family(G, M, T2), T2 = "gpcr"')
        assert canonical_key(q1) == canonical_key(q2)

    def test_different_constants_differ(self):
        q1 = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        q2 = parse_query('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert canonical_key(q1) != canonical_key(q2)

    def test_different_structure_differs(self):
        q1 = parse_query("Q(N) :- Family(F, N, Ty)")
        q2 = parse_query("Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)")
        assert canonical_key(q1) != canonical_key(q2)

    def test_comparison_orientation_normalized(self):
        q1 = parse_query("Q(A) :- R(A, B), B > 3")
        q2 = parse_query("Q(A) :- R(A, B), 3 < B")
        assert canonical_key(q1) == canonical_key(q2)

    def test_head_projection_matters(self):
        q1 = parse_query("Q(A) :- R(A, B)")
        q2 = parse_query("Q(B) :- R(A, B)")
        assert canonical_key(q1) != canonical_key(q2)

    def test_lambda_parameters_matter(self):
        lam = parse_query("lambda X. Q(N) :- Family(X, N, Ty)")
        twin = parse_query("Q(N) :- Family(F, N, Ty)")
        renamed = parse_query("lambda Y. Q(M) :- Family(Y, M, T)")
        assert canonical_key(lam) != canonical_key(twin)
        assert canonical_key(lam) == canonical_key(renamed)

    def test_lambda_parameter_order_matters(self):
        q1 = parse_query("lambda X, Y. Q(N) :- R(X, Y, N)")
        q2 = parse_query("lambda Y, X. Q(N) :- R(X, Y, N)")
        assert canonical_key(q1) != canonical_key(q2)


class TestCachedEngine:
    def test_hit_on_repeat(self, registry):
        engine = cached_engine(registry)
        query = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        first = engine.rewrite(query)
        second = engine.rewrite(query)
        assert first is second
        assert engine.hits == 1 and engine.misses == 1

    def test_hit_on_alpha_equivalent(self, registry):
        engine = cached_engine(registry)
        engine.rewrite(parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"'))
        engine.rewrite(parse_query('Q(M) :- Family(G, M, T), T = "gpcr"'))
        assert engine.hits == 1

    def test_miss_on_new_structure(self, registry):
        engine = cached_engine(registry)
        engine.rewrite(parse_query("Q(N) :- Family(F, N, Ty)"))
        engine.rewrite(parse_query("Q(Tx) :- FamilyIntro(F, Tx)"))
        assert engine.misses == 2
        assert engine.size == 2

    def test_clear(self, registry):
        engine = cached_engine(registry)
        engine.rewrite(parse_query("Q(N) :- Family(F, N, Ty)"))
        engine.clear()
        assert engine.size == 0 and engine.hits == 0

    def test_cached_results_identical(self, registry):
        plain = RewritingEngine(registry)
        cached = CachedRewritingEngine(RewritingEngine(registry))
        query = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        assert [repr(r.query) for r in plain.rewrite(query)] == \
            [repr(r.query) for r in cached.rewrite(query)]


class TestLambdaQueries:
    LAMBDA = "lambda X. Q(N) :- Family(X, N, Ty)"
    TWIN = "Q(N) :- Family(F, N, Ty)"

    def test_warm_twin_does_not_mask_the_refusal(self, db, registry):
        engine = CitationEngine(db, registry)
        with pytest.raises(RewritingError):
            engine.cite(self.LAMBDA)
        engine.cite(self.TWIN)
        with pytest.raises(RewritingError):
            engine.cite(self.LAMBDA)


class TestCacheBound:
    """The LRU bound: millions of distinct structures must not grow the
    cache without limit."""

    QUERIES = [
        "Q(N) :- Family(F, N, Ty)",
        "Q(Tx) :- FamilyIntro(F, Tx)",
        "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
    ]

    def test_least_recently_used_structure_evicted(self, registry):
        engine = CachedRewritingEngine(RewritingEngine(registry),
                                       max_entries=2)
        for text in self.QUERIES:
            engine.rewrite(parse_query(text))
        assert engine.size == 2
        assert engine.evictions == 1
        # The oldest structure was evicted: re-rewriting misses again.
        misses = engine.misses
        engine.rewrite(parse_query(self.QUERIES[0]))
        assert engine.misses == misses + 1

    def test_hit_refreshes_lru_order(self, registry):
        engine = CachedRewritingEngine(RewritingEngine(registry),
                                       max_entries=2)
        engine.rewrite(parse_query(self.QUERIES[0]))
        engine.rewrite(parse_query(self.QUERIES[1]))
        engine.rewrite(parse_query(self.QUERIES[0]))  # refresh entry 0
        engine.rewrite(parse_query(self.QUERIES[2]))  # evicts entry 1
        hits = engine.hits
        engine.rewrite(parse_query(self.QUERIES[0]))
        assert engine.hits == hits + 1

    def test_clear_resets_counters_coherently(self, registry):
        engine = CachedRewritingEngine(RewritingEngine(registry),
                                       max_entries=1)
        for text in self.QUERIES:
            engine.rewrite(parse_query(text))
        assert engine.evictions == 2
        engine.clear()
        assert engine.size == 0
        assert (engine.hits, engine.misses, engine.evictions) == (0, 0, 0)

    def test_rejects_nonpositive_bound(self, registry):
        with pytest.raises(ValueError):
            CachedRewritingEngine(RewritingEngine(registry), max_entries=0)


class TestCitationEngineIntegration:
    def test_cached_rewritings_preserve_results(self, db, registry):
        # Every engine rewrites through the cache from construction: the
        # cache-served repeat cites exactly what the enumerating first
        # call did.
        query = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)'
        engine = CitationEngine(db, registry)
        assert isinstance(engine.rewriting_engine, CachedRewritingEngine)
        cold = engine.cite(query)
        warm = engine.cite(query)
        assert engine.rewriting_engine.hits == 1
        assert set(cold.tuples) == set(warm.tuples)
        for output in cold.tuples:
            assert cold.tuples[output].polynomial == \
                warm.tuples[output].polynomial

    def test_cache_reused_across_alpha_variants(self, db, registry):
        engine = CitationEngine(db, registry)
        engine.cite('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        engine.cite('Q(M) :- Family(G, M, T), T = "gpcr"')
        assert engine.rewriting_engine.hits == 1
