"""Differential suite: citing only the best-ranked rewritings ≡ citing
through every rewriting.

An order that declares :meth:`MonomialOrder.rewriting_rank
<repro.citation.order.MonomialOrder.rewriting_rank>` lets the citation
engine skip, before planning, each rewriting ranked below the best of
its disjunct: Section 3.4 absorbs it for every output tuple.  The
reference is the same order wrapped in a lexicographic chain that
declares nothing (``UnrankedChain``): it orders monomials alike, ranks
no rewriting and decides no shape, so its engine evaluates every
rewriting and asks the order for every tuple.  Both engines must return
the same citation JSON, the same tuples in the same order, the same
combined and per-rewriting polynomials (read after the citation, so the
skipped ones are computed on demand) and the same aggregate.

Queries are random instances of point, type-wide, self-join and
three-atom templates, random foreign-key joins
(:class:`~repro.workload.queries.QueryGenerator`) and unions of two of
them, over a registry with one extra view (``X`` over
``FamilyIntro ⋈ FC``), so rewritings differ in uncovered atoms as well
as in views.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.citation.generator import CitationEngine, PrunedRewriting
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    MonomialOrder,
    ViewInclusionOrder,
)
from repro.citation.policy import CitationPolicy, default_order
from repro.citation.policy_language import parse_policy
from repro.cq.parser import parse_query
from repro.cq.ucq import UnionQuery
from repro.errors import StaleResultError
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.views import paper_views
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry
from repro.workload.queries import QueryGenerator

DB = GtopdbGenerator(families=15, persons=10, types=3).build()
REGISTRY = ViewRegistry(DB.schema, paper_views() + [
    CitationView.from_strings(
        view="lambda F. X(F, Tx, C) :- FamilyIntro(F, Tx), FC(F, C)",
        citation_query="lambda F. CX(F, Tx) :- FamilyIntro(F, Tx)",
    ),
])


class UnrankedChain(LexicographicOrder):
    """A chain that declares neither a rank nor a shape: its engine
    evaluates every rewriting and asks the order for every tuple."""


class FewerFactorsOrder(MonomialOrder):
    """A custom order defining only ``leq``: a monomial dividing another
    is preferred.  It declares no rank."""

    def leq(self, m1, m2):
        return m2.divides(m1)


class CustomViews(FewestViewsOrder):
    """A subclass that declares nothing: it inherits no rank."""


def chain(text):
    return parse_policy(
        f"policy p {{ plusR = best order = {text} }}", REGISTRY
    ).order


ORDERS = [
    FewestViewsOrder(),
    FewestUncoveredOrder(),
    ViewInclusionOrder(REGISTRY),
    default_order(REGISTRY),
    default_order(),
    chain("fewest-views > fewest-uncovered"),
    chain("fewest-views > view-inclusion > fewest-uncovered"),
    chain("view-inclusion > fewest-views"),
    # A nested chain whose first level ranks on one level only.
    LexicographicOrder([
        LexicographicOrder([FewestUncoveredOrder(),
                            ViewInclusionOrder(REGISTRY)]),
        FewestViewsOrder(),
    ]),
    LexicographicOrder([FewestUncoveredOrder(), FewerFactorsOrder()]),
    FewerFactorsOrder(),
    CustomViews(),
]


def column(relation, position):
    return sorted({str(row[position]) for row in DB.relation(relation)})


FAMILIES = column("Family", 0)
TYPES = column("Family", 2)
PERSONS = column("Person", 0)
TEMPLATES = [
    ('Q(N) :- Family(F, N, Ty), F = "{}"', FAMILIES),
    ('Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "{}"', FAMILIES),
    # Rewriting 0 (V1, V2) is skipped, and V5 derives several tuples.
    ('Q(C) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), F = "{}"',
     FAMILIES),
    ('Q(Pn) :- FC(F, C), Person(C, Pn, A), F = "{}"', FAMILIES),
    ('Q(N) :- Family(F, N, Ty), FC(F, C), C = "{}"', PERSONS),
    ('Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "{}"', TYPES),
    ('Q(N) :- Family(F, N, Ty), Ty = "{}"', TYPES),
    # Self-joins that apply one view twice.
    ('Q(N1, N2) :- Family(F1, N1, Ty), Family(F2, N2, Ty), Ty = "{}"',
     TYPES),
    ('Q(N, M) :- Family(F, N, Ty), Family(G, M, Ty), FamilyIntro(G, Tx), '
     'Ty = "{}"', TYPES),
    # Total two-view rewritings against partial one-view ones.
    ('Q(N, Tx, C) :- Family(F, N, Ty), FamilyIntro(F, Tx), FC(F, C), '
     'Ty = "{}"', TYPES),
    ("Q(N, Tx, C) :- Family(F, N, Ty), FamilyIntro(F, Tx), FC(F, C){}",
     [""]),
]


@st.composite
def conjunctive_queries(draw):
    if draw(st.booleans()):
        template, values = draw(st.sampled_from(TEMPLATES))
        return parse_query(template.format(draw(st.sampled_from(values))))
    generator = QueryGenerator(
        DB.schema, DB, seed=draw(st.integers(0, 10_000)), max_atoms=3,
    )
    return generator.generate()


@st.composite
def queries(draw):
    """A conjunctive query, or now and then a union of two."""
    first = draw(conjunctive_queries())
    if draw(st.integers(0, 3)):
        return first
    second = draw(conjunctive_queries())
    if len(second.head) != len(first.head):
        return first
    return UnionQuery([first, second])


ENGINES: dict[tuple, tuple[CitationEngine, CitationEngine]] = {}


def engines(order_index, plus_r, max_rewritings):
    key = (order_index, plus_r, max_rewritings)
    if key not in ENGINES:
        order = ORDERS[order_index]
        ENGINES[key] = tuple(
            CitationEngine(
                DB, REGISTRY, max_rewritings=max_rewritings,
                policy=CitationPolicy(
                    name="differential", plus_r=plus_r, order=chosen,
                ),
            )
            for chosen in (order, UnrankedChain([order]))
        )
    return ENGINES[key]


def snapshot(result):
    """Everything a citation returns, per-rewriting polynomials read
    last, in a comparable form."""
    return (
        json.dumps(result.citation(), default=str),
        [
            (output, list(tc.polynomial.terms.items()))
            for output, tc in result.tuples.items()
        ],
        list(result.aggregate_polynomial.terms.items()),
        [
            [list(p.terms.items()) for p in tc.per_rewriting]
            for tc in result.tuples.values()
        ],
    )


class TestPrunedMatchesUnpruned:
    @given(
        st.integers(0, len(ORDERS) - 1),
        st.sampled_from(["best", "union"]),
        st.sampled_from([None, 2]),
        st.lists(queries(), min_size=1, max_size=3),
    )
    # Uncovered atoms decide (default order), and one view applied
    # twice ties with two views (fewest views).
    @example(3, "best", None, [parse_query(
        TEMPLATES[9][0].format(TYPES[0])
    )])
    @example(0, "best", None, [parse_query(
        TEMPLATES[7][0].format(TYPES[0])
    )])
    @settings(max_examples=200, deadline=None)
    def test_citations_match(self, order_index, plus_r, max_rewritings,
                             batch):
        pruned, reference = engines(order_index, plus_r, max_rewritings)
        served = pruned.cite_batch(batch)
        expected = reference.cite_batch(batch)
        for result, unpruned in zip(served, expected):
            assert unpruned.pruned == {}
            assert [repr(r) for r in result.rewritings] == [
                repr(r) for r in unpruned.rewritings
            ]
            assert snapshot(result) == snapshot(unpruned)

    @pytest.mark.parametrize("order_index", range(len(ORDERS)))
    def test_ranked_orders_skip_rewritings(self, order_index):
        # The fixed templates exercise every declared rank: a ranked
        # order skips something, an unranked one nothing.
        pruned, __ = engines(order_index, "best", None)
        results = pruned.cite_batch([
            template.format(values[0]) for template, values in TEMPLATES
        ])
        skipped = sum(len(result.pruned) for result in results)
        ranked = bool(ORDERS[order_index].rewriting_rank(
            results[1].rewritings[0]
        ))
        assert bool(skipped) == ranked


def test_declarations():
    rewriting = engines(0, "best", None)[0].cite(
        TEMPLATES[9][0].format(TYPES[0])
    ).rewritings[-1]
    assert FewestViewsOrder().rewriting_rank(rewriting) == (
        ("fewest views", 2),
    )
    assert default_order(REGISTRY).rewriting_rank(rewriting) == (
        ("fewest uncovered", 1), ("fewest views", 2),
    )
    for unranked in (ViewInclusionOrder(REGISTRY), FewerFactorsOrder(),
                     CustomViews(), UnrankedChain([FewestViewsOrder()]),
                     chain("view-inclusion > fewest-views")):
        assert unranked.rewriting_rank(rewriting) == ()


def test_per_rewriting_after_a_write_is_refused():
    db = GtopdbGenerator(families=20, persons=10, types=2).build()
    engine = CitationEngine(db, REGISTRY)
    text = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "{}"'
    kind = sorted({row[2] for row in db.relation("Family")})[0]
    stale = engine.cite(text.format(kind))
    fresh = engine.cite(text.format(kind))
    assert stale.pruned and all(
        isinstance(why, PrunedRewriting) for why in stale.pruned.values()
    )
    read = next(iter(fresh.tuples.values())).per_rewriting
    db.insert("Family", "F-new", "new family", kind)
    # Read before the write: computed then, and kept.
    assert next(iter(fresh.tuples.values())).per_rewriting == read
    with pytest.raises(StaleResultError):
        next(iter(stale.tuples.values())).per_rewriting
    # The combined citation needs no skipped rewriting.
    assert next(iter(stale.tuples.values())).polynomial == next(
        iter(fresh.tuples.values())
    ).polynomial
