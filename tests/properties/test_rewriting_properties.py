"""Property-based tests for the rewriting engine.

The central invariant (Def 2.2): every emitted rewriting is *equivalent*
to the input query — checked semantically by evaluating both against
random databases with the views materialized.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.generator import CitationEngine
from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.views import paper_registry
from repro.rewriting.engine import enumerate_rewritings
from repro.workload.queries import QueryGenerator

REGISTRY = paper_registry()

QUERY_TEXTS = [
    "Q(N) :- Family(F, N, Ty)",
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
    'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"',
    "Q(F, Tx) :- FamilyIntro(F, Tx)",
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    'Q(Pn) :- FC(F, C), Person(C, Pn, A), F = "11"',
    "Q(N1, N2) :- Family(F1, N1, Ty), Family(F2, N2, Ty)",
    'Q(Tx) :- FamilyIntro(F, Tx), Family(F, N, Ty), N = "Orexin"',
]


@st.composite
def gtopdb_databases(draw):
    seed = draw(st.integers(0, 10_000))
    families = draw(st.integers(3, 25))
    return GtopdbGenerator(
        families=families, persons=10, types=3,
        intro_fraction=0.7, seed=seed,
    ).build()


class TestRewritingEquivalence:
    @given(st.sampled_from(QUERY_TEXTS), gtopdb_databases())
    @settings(max_examples=40, deadline=None)
    def test_rewritings_evaluate_identically(self, text, db):
        query = parse_query(text)
        expected = sorted(evaluate_query(query, db))
        virtual = CitationEngine(db, REGISTRY).materialized_views()
        for rewriting in enumerate_rewritings(query, REGISTRY):
            got = sorted(
                evaluate_query(rewriting.query, db, virtual=virtual)
            )
            assert got == expected, rewriting

    @given(st.sampled_from(QUERY_TEXTS))
    @settings(max_examples=20, deadline=None)
    def test_enumeration_deterministic(self, text):
        query = parse_query(text)
        runs = [
            [repr(r.query) for r in enumerate_rewritings(query, REGISTRY)]
            for __ in range(2)
        ]
        assert runs[0] == runs[1]

    @given(st.sampled_from(QUERY_TEXTS))
    @settings(max_examples=20, deadline=None)
    def test_classification_consistent(self, text):
        query = parse_query(text)
        for rewriting in enumerate_rewritings(query, REGISTRY):
            assert rewriting.is_total == (not rewriting.uncovered_atoms)
            assert rewriting.view_count == len(rewriting.applications)
            assert rewriting.uncovered_count == len(
                rewriting.uncovered_atoms
            )


class TestRandomWorkloadRewriting:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_random_queries_rewrite_equivalently(self, seed):
        db = GtopdbGenerator(families=12, persons=8, types=3,
                             seed=seed % 17).build()
        generator = QueryGenerator(db.schema, db, seed=seed, max_atoms=2)
        query = generator.generate()
        expected = sorted(evaluate_query(query, db))
        virtual = CitationEngine(db, REGISTRY).materialized_views()
        for rewriting in enumerate_rewritings(query, REGISTRY):
            got = sorted(
                evaluate_query(rewriting.query, db, virtual=virtual)
            )
            assert got == expected, (query, rewriting)
