"""Tests for the rewriting cache (Section 4: caching)."""


import pytest

from repro.citation.cache import (
    CachedRewritingEngine,
    cached_engine,
    canonical_key,
    template_key,
)
from repro.citation.generator import CitationEngine
from repro.cq.atoms import RelationalAtom
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant
from repro.errors import RewritingError
from repro.relational.schema import RelationSchema, Schema
from repro.rewriting.engine import RewritingEngine
from repro.rewriting.rewriting import Rewriting
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry


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


def _constant_registry():
    """Views with a constant (``"x"``) and a comparison (``B > 5``)."""
    return ViewRegistry(
        Schema([RelationSchema("R", ["a", "b"])]),
        [
            CitationView.from_strings(
                view='W(A) :- R(A, "x")', citation_query='CW(A) :- R(A, "x")'
            ),
            CitationView.from_strings(
                view="V(A, B) :- R(A, B), B > 5",
                citation_query="CV(A, B) :- R(A, B), B > 5",
            ),
        ],
    )


class TestTemplateKey:
    def test_constant_values_lift_into_slots(self):
        gpcr, gpcr_constants = template_key(
            parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        )
        vgic, vgic_constants = template_key(
            parse_query('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        )
        assert gpcr == vgic
        assert [c.value for c in gpcr_constants] == ["gpcr"]
        assert [c.value for c in vgic_constants] == ["vgic"]

    def test_equality_pattern_matters(self):
        same = template_key(parse_query(
            'Q(N) :- Family(F, N, Ty), F = "11", Ty = "11"'
        ))[0]
        distinct = template_key(parse_query(
            'Q(N) :- Family(F, N, Ty), F = "11", Ty = "12"'
        ))[0]
        assert same != distinct

    def test_type_matters(self):
        keys = {
            template_key(parse_query(
                f"Q(N) :- Family(F, N, Ty), Ty = {literal}"
            ))[0]
            for literal in ("5", "5.0", '"5"', "true")
        }
        assert len(keys) == 4

    def test_pairwise_order_matters(self):
        def key(low, high):
            return template_key(parse_query(
                f"Q(N) :- Family(F, N, Ty), F > {low}, F < {high}"
            ))[0]

        assert key(3, 9) == key(10, 99)
        assert key(3, 9) != key(9, 3)

    def test_order_against_registry_constants_matters(self):
        def key(bound):
            return template_key(
                parse_query(f"Q(A) :- R(A, B), B > {bound}"), (Constant(5),)
            )[0]

        assert key(7) == key(9)
        assert key(7) != key(3)
        assert key(7) != key(5)


class TestTemplateCache:
    def test_new_constant_hits_the_template(self, registry):
        engine = cached_engine(registry)
        fresh = RewritingEngine(registry)
        gpcr = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        vgic = parse_query('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert engine.rewrite(gpcr) == fresh.rewrite(gpcr)
        assert engine.rewrite(vgic) == fresh.rewrite(vgic)
        assert (engine.misses, engine.hits) == (1, 1)

    def test_swapped_constants_reach_every_part(self, registry):
        engine = cached_engine(registry)
        engine.rewrite(parse_query(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "11"'
        ))
        served = engine.rewrite(parse_query(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "12"'
        ))
        assert engine.hits == 1
        terms = []
        for rewriting in served:
            for atom in rewriting.query.atoms + rewriting.uncovered_atoms:
                terms.extend(atom.terms)
            for application in rewriting.applications:
                terms.extend(application.atom.terms)
                terms.extend(application.parameter_terms)
        assert {term.value for term in terms if term.is_constant} == {"12"}

    def test_equality_pattern_makes_its_own_entry(self, registry):
        engine = cached_engine(registry)
        fresh = RewritingEngine(registry)
        for text in (
            'Q(N) :- Family(F, N, {0}), Family(G, N, {1})'.format(*pair)
            for pair in (('"a"', '"b"'), ('"a"', '"a"'), ('"c"', '"d"'))
        ):
            query = parse_query(text)
            assert engine.rewrite(query) == fresh.rewrite(query)
        assert (engine.misses, engine.hits) == (2, 1)

    def test_type_makes_its_own_entry(self, registry):
        engine = cached_engine(registry)
        for literal in ("5", "5.0", '"5"', "true", "6"):
            engine.rewrite(parse_query(
                f"Q(N) :- Family(F, N, Ty), Ty = {literal}"
            ))
        assert (engine.misses, engine.hits) == (4, 1)

    def test_registry_order_makes_its_own_entry(self):
        registry = _constant_registry()
        engine = cached_engine(registry)
        fresh = RewritingEngine(registry)
        for text in (
            'Q(A) :- R(A, B), B = "x"',
            'Q(A) :- R(A, B), B = "y"',
            "Q(A) :- R(A, B), B > 7",
            "Q(A) :- R(A, B), B > 3",
            "Q(A) :- R(A, B), B > 9",
        ):
            query = parse_query(text)
            assert engine.rewrite(query) == fresh.rewrite(query)
        assert (engine.misses, engine.hits) == (4, 1)

    def test_equal_constants_that_print_apart_keep_their_text(
        self, registry
    ):
        engine = cached_engine(registry)
        fresh = RewritingEngine(registry)
        for text in (
            "Q(N) :- Family(F, N, Ty), F = -0.0",
            "Q(N) :- Family(F, N, Ty), F = 0.0",
            "Q(N) :- Family(F, N, Ty), F = 0.0, Ty > 0.0",
            "Q(N) :- Family(F, N, Ty), F = 0.0, Ty > -0.0",
        ):
            query = parse_query(text)
            assert [
                (repr(r.query), repr(r.applications))
                for r in engine.rewrite(query)
            ] == [
                (repr(r.query), repr(r.applications))
                for r in fresh.rewrite(query)
            ]
        assert (engine.misses, engine.hits) == (3, 1)

    def test_swap_resorts_when_constants_decide_the_order(self):
        # The crossings of (9, 10) sort "R(A, 10)" first; those of
        # (1, 20) sort "R(A, 1)" first.
        engine = CachedRewritingEngine(_Crossings())
        engine.rewrite(parse_query("Q(A) :- R(A, 9), S(A, 10)"))
        query = parse_query("Q(A) :- R(A, 1), S(A, 20)")
        assert engine.rewrite(query) == _Crossings().rewrite(query)
        assert engine.hits == 1


class _Crossings:
    """A stand-in engine whose two rewritings of ``R(A, a), S(A, b)``
    differ only in where the constants sit, so the ``repr`` ending
    :meth:`Rewriting.sort_key` orders them by the constants' text."""

    registry = ()

    def rewrite(self, query):
        first, second = (atom.terms[1] for atom in query.atoms)
        head = query.head

        def crossing(r_term, s_term):
            atoms = (
                RelationalAtom("R", (head[0], r_term)),
                RelationalAtom("S", (head[0], s_term)),
            )
            return Rewriting(ConjunctiveQuery("Q", head, atoms), (), atoms)

        return sorted(
            [crossing(first, second), crossing(second, first)],
            key=Rewriting.sort_key,
        )


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
