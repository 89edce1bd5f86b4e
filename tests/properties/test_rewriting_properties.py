"""Property-based tests for the rewriting engine.

The central invariant (Def 2.2): every emitted rewriting is *equivalent*
to the input query — checked semantically by evaluating both against
random databases with the views materialized.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.cache import CachedRewritingEngine
from repro.citation.generator import CitationEngine
from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.cq.terms import Constant
from repro.errors import ReproError
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.views import paper_registry
from repro.relational.schema import RelationSchema, Schema
from repro.rewriting.engine import RewritingEngine, enumerate_rewritings
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry
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


# ---------------------------------------------------------------------------
# Template-served rewritings ≡ fresh enumeration
# ---------------------------------------------------------------------------


def _view(definition):
    name = definition.split(". ")[-1].split("(")[0]
    return CitationView.from_strings(
        view=definition,
        citation_query=definition.replace(f"{name}(", f"C{name}(", 1),
    )


#: View constants and view comparisons (the first two are the views of
#: tests/rewriting/test_descriptors.py) next to a λ-view with its own
#: comparison: the rewritings of these shapes depend on how the query's
#: constants order against ``"x"``, ``5`` and ``7``, and on whether a
#: constant equal to ``5`` is the int (``5.0`` is not ``U``'s constant).
CONSTANT_REGISTRY = ViewRegistry(
    Schema([RelationSchema("R", ["a", "b"]), RelationSchema("S", ["a", "c"])]),
    [
        _view('W(A) :- R(A, "x")'),
        _view("V(A, B) :- R(A, B), B > 5"),
        _view("lambda A. L(A, C) :- S(A, C), C <= 7"),
        _view("U(A) :- S(A, 5)"),
    ],
)

PAPER_SHAPES = [
    "Q(N) :- Family(F, N, Ty), Ty = {0}",
    "Q(N, Ty) :- Family(F, N, Ty), F = {0}",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = {0}",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {0}",
    "Q(Pn) :- FC(F, C), Person(C, Pn, A), F = {0}",
    "Q(N) :- Family(F, N, Ty), FC(F, C), C = {0}",
    "Q(N) :- Family(F, N, Ty), Ty = {0}, F > {1}",
    "Q(N) :- Family(F, N, {0}), Family(G, N, {1})",
    "Q(N) :- Family(F, N, Ty), Ty = {0}, Ty = {1}",
    "Q(N, Ty) :- Family(F, N, Ty), F >= {0}, F <= {1}",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = {0}, Tx != {1}",
]

CONSTANT_SHAPES = [
    "Q(A) :- R(A, B), B = {0}",
    "Q(A) :- R(A, {0})",
    "Q(A) :- S(A, {0})",
    "Q(A, B) :- R(A, B), B > {0}",
    "Q(A, B) :- R(A, B), B >= {0}, B < {1}",
    "Q(A, C) :- S(A, C), C <= {0}",
    "Q(A) :- S(A, C), A = {0}, C < {1}",
    "Q(A) :- R(A, B), S(A, C), B = {0}, C = {1}",
    "Q(A) :- R(A, {0}), R(A, {1})",
    "Q(A) :- S(A, {0}), S(A, {1})",
    "Q(A, C) :- R(A, B), S(A, C), B != {0}, C > {1}",
    "Q(A) :- R(A, B), S(A, C), B = C, C >= {0}",
]

#: Groups of constants that compare in ways the rewritings read: the
#: registries' own constants and their neighbours, multi-digit ints
#: (numeric order 9 < 10, repr order "10" < "9"), mixed types (5, 5.0
#: and "5", or true, 1 and 1.0, differ as constants), 0.0 and -0.0
#: (equal constants that print apart) and the paper's data.  Each
#: example draws its constants from one small group, so the same
#: template meets constants that agree in all but one respect.
CONSTANT_GROUPS = [
    ["x", "y", "xx"],
    [5, 5.0, "5"],
    [True, 1, 1.0],
    [0.0, -0.0, 0],
    [6, 7, 8, 7.0],
    [9, 10, 99, 100, "9", "10"],
    ["gpcr", "vgic", "11", "12"],
]


def _outcome(engine, query):
    """The rewritings, with their text (equal constants may print
    apart), or the error."""
    try:
        return [
            (rewriting, repr(rewriting.query), repr(rewriting.applications),
             repr(rewriting.uncovered_atoms))
            for rewriting in engine.rewrite(query)
        ]
    except ReproError as error:
        return (type(error), str(error))


class TestTemplateServedRewritings:
    """The rewriting cache serves a query from the entry of its template
    (its first query with the same key) by swapping constants in; the
    served list must be what enumeration gives: same rewritings, same
    order, and the same error when enumeration raises."""

    @pytest.mark.parametrize("registry, shapes", [
        (REGISTRY, PAPER_SHAPES), (CONSTANT_REGISTRY, CONSTANT_SHAPES),
    ], ids=["paper", "view-constants"])
    @pytest.mark.parametrize("max_rewritings", [None, 2])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_served_equals_fresh_enumeration(
        self, registry, shapes, max_rewritings, data
    ):
        cached = CachedRewritingEngine(
            RewritingEngine(registry, max_rewritings=max_rewritings)
        )
        fresh = RewritingEngine(registry, max_rewritings=max_rewritings)
        group = data.draw(st.sampled_from(CONSTANT_GROUPS))
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(group), st.sampled_from(group)),
            min_size=2, max_size=8,
        ))
        for shape in shapes:
            for first, second in pairs:
                query = parse_query(shape.format(
                    repr(Constant(first)), repr(Constant(second))
                ))
                assert _outcome(cached, query) == _outcome(fresh, query), \
                    query
