"""Differential suite: Section 3.4 absorption ≡ its pairwise definition.

Every order answers ``MonomialOrder.maximal`` with its own shortcut
(one pass for count orders, best-class narrowing for lexicographic
orders, an inverted index for view inclusion).  This module keeps the
all-pairs code those shortcuts replaced as the reference and requires
equal monomials, coefficients and ``best_polynomials`` list order.

A citation engine decides absorption once per tuple shape and replays
the kept positions on later tuples of that shape.  The memo suite serves
random tuples that repeat shapes through one engine and requires what
the per-tuple functions give.

The ``benchmarks/perf`` oracle cannot catch an absorption change: it
recomputes replies with the same code the server runs.  The last tests
cite that benchmark's wide list and hot set with the generator's
absorption functions swapped for the reference, through an order that
declares no shape, instead.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from itertools import count
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_order_properties import (
    ORDERS,
    REGISTRY,
    base_tokens,
    citation_tokens,
)

import repro.citation.generator as generator
from repro.citation.generator import CitationEngine
from repro.citation.order import (
    CountOrder,
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    MonomialOrder,
    ViewInclusionOrder,
    MAX_SHAPE_TOKENS,
    absorbing_sum,
    best_polynomials,
    normal_form,
    polynomial_leq,
    token_shape,
)
from repro.citation.policy import CitationPolicy, default_order
from repro.citation.policy_language import parse_policy
from repro.citation.polynomial import monomial_from_tokens
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.gtopdb.sample import paper_database
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


# ---------------------------------------------------------------------------
# the reference: the pairwise code before order-specific ``maximal``
# ---------------------------------------------------------------------------


def reference_leq(order, m1, m2):
    """``order.leq``, with the lexicographic and view-inclusion orders
    spelled out as defined: ``equivalent`` then ``leq`` per level, and
    pairwise token normalization before Hoare domination."""
    if isinstance(order, LexicographicOrder):
        for level in order._orders:
            if (reference_leq(level, m1, m2)
                    and reference_leq(level, m2, m1)):
                continue
            return reference_leq(level, m1, m2)
        return True
    if isinstance(order, ViewInclusionOrder):
        n1 = reference_normalize(order, m1)
        n2 = reference_normalize(order, m2)
        return all(
            any(order.token_leq(a, b) for b in n2.tokens())
            for a in n1.tokens()
        )
    return order.leq(m1, m2)


def reference_normalize(order, monomial):
    tokens = monomial.tokens()
    kept = []
    for token in tokens:
        dominated = any(
            other != token and order.token_leq(token, other)
            and not order.token_leq(other, token)
            for other in tokens
        )
        if not dominated:
            kept.append(token)
    return ProvenanceMonomial(kept)


def reference_strictly_less(order, m1, m2):
    return reference_leq(order, m1, m2) and not reference_leq(order, m2, m1)


def reference_maximal(monomials, order):
    return [
        monomial for monomial in monomials
        if not any(
            other != monomial
            and reference_strictly_less(order, monomial, other)
            for other in monomials
        )
    ]


def reference_normal_form(polynomial, order):
    monomials = polynomial.monomials()
    kept = {}
    for monomial in monomials:
        dominated = any(
            other != monomial
            and reference_strictly_less(order, monomial, other)
            for other in monomials
        )
        if not dominated:
            kept[monomial] = polynomial.terms[monomial]
    return ProvenancePolynomial(kept)


def reference_polynomial_leq(p1, p2, order):
    nf1 = reference_normal_form(p1, order)
    nf2 = reference_normal_form(p2, order)
    monomials2 = nf2.monomials()
    return all(
        any(reference_leq(order, m1, m2) for m2 in monomials2)
        for m1 in nf1.monomials()
    )


def reference_absorbing_sum(polynomials, order):
    union = {}
    for polynomial in polynomials:
        for monomial, coefficient in polynomial.terms.items():
            union[monomial] = union.get(monomial, 0) + coefficient
    return reference_normal_form(ProvenancePolynomial(union), order)


def reference_best_polynomials(polynomials, order):
    kept = []
    for index, candidate in enumerate(polynomials):
        dominated = False
        for other_index, other in enumerate(polynomials):
            if other_index == index or other == candidate:
                continue
            if (reference_polynomial_leq(candidate, other, order)
                    and not reference_polynomial_leq(other, candidate,
                                                     order)):
                dominated = True
                break
        if not dominated and candidate not in kept:
            kept.append(candidate)
    return kept


# ---------------------------------------------------------------------------
# orders and inputs
# ---------------------------------------------------------------------------


class FewerFactorsOrder(MonomialOrder):
    """A custom order defining only ``leq``: a monomial dividing another
    is preferred (``m1 ≤ m2`` iff ``m2`` divides ``m1``)."""

    def leq(self, m1, m2):
        return m2.divides(m1)


DIFFERENTIAL_ORDERS = [
    *ORDERS,
    FewerFactorsOrder(),
    # A count order, then a custom order as the one remaining level.
    LexicographicOrder([FewestUncoveredOrder(), FewerFactorsOrder()]),
    # A count order, then several levels after a partial order.
    LexicographicOrder([
        FewestUncoveredOrder(), FewerFactorsOrder(), FewestViewsOrder(),
    ]),
    # A partial order before a count order.
    parse_policy(
        "policy p { plusR = best order = view-inclusion > fewest-views }",
        REGISTRY,
    ).order,
    # A custom partial order first, then view inclusion and a count.
    LexicographicOrder([
        FewerFactorsOrder(), ViewInclusionOrder(REGISTRY), FewestViewsOrder(),
    ]),
]
orders = st.sampled_from(DIFFERENTIAL_ORDERS)

UNIT = ProvenanceMonomial()
monomials = st.one_of(
    st.just(UNIT),
    # One multiplicand, the shape of a type-wide aggregate.
    citation_tokens.map(lambda token: monomial_from_tokens([token])),
    st.lists(citation_tokens, min_size=2, max_size=4).map(
        monomial_from_tokens
    ),
    # C_R only: normalization keeps every C_R atom.
    st.lists(base_tokens, min_size=1, max_size=3).map(monomial_from_tokens),
)


def polynomials(max_size):
    return st.dictionaries(
        monomials, st.integers(1, 3), max_size=max_size
    ).map(ProvenancePolynomial)


def items(polynomial):
    return list(polynomial.terms.items())


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


#: V3 (no λ) is covered by the strictly finer V1 and V4, a bare C_R by
#: any view, the unit monomial by everything.
SHORTCUT_CASE = [
    monomial_from_tokens([ViewCitationToken("V3")]),
    monomial_from_tokens([ViewCitationToken("V1", ("11",))]),
    monomial_from_tokens([BaseRelationToken("FC")]),
    UNIT,
    monomial_from_tokens([ViewCitationToken("V4", ("gpcr",))]),
]


class TestAbsorptionMatchesReference:
    @given(orders, st.lists(monomials, max_size=40))
    @example(ViewInclusionOrder(REGISTRY), SHORTCUT_CASE)
    @example(ViewInclusionOrder(REGISTRY), SHORTCUT_CASE[2:4])
    @settings(max_examples=150, deadline=None)
    def test_maximal(self, order, candidates):
        assert order.maximal(candidates) == reference_maximal(
            candidates, order
        )

    @given(orders, monomials, monomials)
    @settings(max_examples=150, deadline=None)
    def test_leq(self, order, m1, m2):
        assert order.leq(m1, m2) == reference_leq(order, m1, m2)

    @given(orders, polynomials(40))
    @settings(max_examples=150, deadline=None)
    def test_normal_form(self, order, polynomial):
        assert items(normal_form(polynomial, order)) == items(
            reference_normal_form(polynomial, order)
        )

    @given(orders, polynomials(12), polynomials(12))
    @settings(max_examples=100, deadline=None)
    def test_polynomial_leq(self, order, p1, p2):
        assert polynomial_leq(p1, p2, order) == reference_polynomial_leq(
            p1, p2, order
        )

    @given(orders, st.lists(polynomials(15), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_absorbing_sum(self, order, summands):
        assert items(absorbing_sum(summands, order)) == items(
            reference_absorbing_sum(summands, order)
        )

    @given(orders, st.lists(polynomials(6), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_best_polynomials(self, order, candidates):
        kept = best_polynomials(candidates, order)
        expected = reference_best_polynomials(candidates, order)
        assert [items(p) for p in kept] == [items(p) for p in expected]


# ---------------------------------------------------------------------------
# the absorption memo: one decision per tuple shape
# ---------------------------------------------------------------------------


class ParameterOrder(CountOrder):
    """A custom order that reads λ-values: monomials with fewer view
    tokens valued other than ``"gpcr"`` are preferred.  Tuples of one
    shape get different decisions from it, so it declares no shape."""

    def count(self, monomial):
        return sum(
            exponent for token, exponent in monomial.powers.items()
            if isinstance(token, ViewCitationToken)
            and token.parameters != ("gpcr",)
        )


class UnshapedChain(LexicographicOrder):
    """A lexicographic chain that declares no shape: an engine asks it
    for every tuple and never replays a memoized decision."""


MEMO_ORDERS = [
    *DIFFERENTIAL_ORDERS,
    ParameterOrder(),
    LexicographicOrder([FewestUncoveredOrder(), ParameterOrder()]),
]
#: Engines subscribe to their database weakly, so one serves them all.
MEMO_DB = paper_database()
#: Token slots of a tuple template: a view valued per tuple (V3 has no
#: λ-parameter) or a base relation.  Two values make slots of one view
#: coincide often.
SLOTS = ["V1", "V2", "V3", "V4", "FC"]
VALUES = ["11", "gpcr"]


def memo_engine(order, plus="union"):
    return CitationEngine(MEMO_DB, REGISTRY, policy=CitationPolicy(
        name="memo", plus=plus, plus_r="best", order=order,
    ))


def slot_token(slot, value):
    if slot == "FC":
        return BaseRelationToken(slot)
    if slot == "V3":
        return ViewCitationToken("V3")
    return ViewCitationToken(slot, (value,))


def instantiate(template, slots, valuation, bump):
    """A tuple's rewriting polynomials: the template with its slots
    valued (two slots valued alike are one token) and its ``bump``-th
    exponent or coefficient, if any, moved one step round 1 → 2 → 3 → 1.
    """
    tokens = [slot_token(*pair) for pair in zip(slots, valuation)]
    knobs = count()

    def knob(value):
        return value % 3 + 1 if next(knobs) == bump else value

    polynomials = []
    for terms in template:
        summed = {}
        for powers, coefficient in terms:
            monomial = ProvenanceMonomial([
                tokens[slot]
                for slot, exponent in powers.items()
                for __ in range(knob(exponent))
            ])
            summed[monomial] = summed.get(monomial, 0) + knob(coefficient)
        polynomials.append(ProvenancePolynomial(summed))
    return polynomials


@st.composite
def tuple_lists(draw):
    """Tuples of rewriting polynomials, cited in order by one engine.

    Each template is a list of polynomials over a few token slots, and
    each of its tuples values the view slots afresh: shapes repeat with
    different parameter values, and differ only in token equality when
    two slots are valued alike.  A tuple may also move one exponent or
    coefficient, so shapes differ in that alone.  Slots recur across a
    template's polynomials, so rewritings share tokens.  Exponents and
    coefficients go up to 3, and a polynomial may be zero.
    """
    tuples = []
    for __ in range(draw(st.integers(1, 3))):
        # Few kinds per template: distinct slots of one view are common.
        kinds = draw(st.lists(st.sampled_from(SLOTS), min_size=1,
                              max_size=2, unique=True))
        slots = draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=3))
        powers = st.dictionaries(
            st.integers(0, len(slots) - 1), st.integers(1, 3), max_size=2
        )
        template = draw(st.lists(
            st.lists(st.tuples(powers, st.integers(1, 3)), max_size=2),
            min_size=1, max_size=4,
        ))
        knob_count = sum(
            1 + len(term_powers)
            for terms in template for term_powers, __ in terms
        )
        for __ in range(draw(st.integers(1, 4))):
            valuation = draw(st.lists(st.sampled_from(VALUES),
                                      min_size=len(slots),
                                      max_size=len(slots)))
            bump = draw(st.none() | st.integers(0, max(knob_count - 1, 0)))
            tuples.append(instantiate(template, slots, valuation, bump))
    return tuples


def single(*tokens, coefficient=1):
    """One polynomial of one monomial."""
    return ProvenancePolynomial({ProvenanceMonomial(list(tokens)): coefficient})


V1_11 = ViewCitationToken("V1", ("11",))
V1_13 = ViewCitationToken("V1", ("13",))
V1_GPCR = ViewCitationToken("V1", ("gpcr",))
V2_11 = ViewCitationToken("V2", ("11",))
V2_13 = ViewCitationToken("V2", ("13",))
V2_GPCR = ViewCitationToken("V2", ("gpcr",))
#: Pairs of tuples whose shapes differ in one thing the orders read, and
#: whose ``+R`` decisions differ, or one shape with different values.
MEMO_CASES = {
    # Token equality: equal polynomials are kept once.
    "equality": [[single(V1_11), single(V1_11)],
                 [single(V1_11), single(V1_13)]],
    # Exponents: V1(11)² counts two views.
    "exponents": [[single(V1_11, V1_11), single(V2_13)],
                  [single(V1_11), single(V2_13)]],
    # Coefficients: m and 2·m are two polynomials, kept side by side.
    "coefficients": [[single(V1_11), single(V1_11, coefficient=2)],
                     [single(V1_13), single(V1_13)]],
    # One shape, other values: replayed positions, not polynomials.
    "values": [[single(V1_11), single(V1_11, BaseRelationToken("FC"))],
               [single(V1_13), single(V1_13, BaseRelationToken("FC"))]],
    # A parameter-reading level decides differently on one shape.
    "parameters": [[single(V1_GPCR), single(V2_11)],
                   [single(V1_11), single(V2_GPCR)]],
}


def serve(order, plus, tuples):
    """Cite ``tuples`` in order through one engine's memo; return, per
    tuple, the served and the per-tuple ``+R`` lists and combinations,
    and the engine."""
    engine = memo_engine(order, plus)
    served, expected = [], []
    for polynomials in tuples:
        nonzero = [p for p in polynomials if not p.is_zero]
        kept = best_polynomials(nonzero, order) if nonzero else []
        expected.append((
            [items(p) for p in kept],
            items(normal_form(engine._plus(kept), order)),
        ))
        served.append((
            [items(p) for p in engine._best(nonzero, order)]
            if nonzero else [],
            items(engine._combine_rewritings(polynomials)),
        ))
    return served, expected, engine


def check_memo(order, plus, tuples):
    served, expected, engine = serve(order, plus, tuples)
    assert served == expected
    if not order.decides_by_shape:
        assert engine.absorption_memo.counters() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }


class TestAbsorptionMemo:
    @pytest.mark.parametrize("order", MEMO_ORDERS)
    @given(st.sampled_from(["union", "counted"]), tuple_lists())
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_per_tuple(self, order, plus, tuples):
        check_memo(order, plus, tuples)

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    @pytest.mark.parametrize("order", MEMO_ORDERS)
    def test_memo_cases(self, order, case):
        check_memo(order, "union", MEMO_CASES[case])
        check_memo(order, "counted", MEMO_CASES[case])

    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_cases_repeat_shapes(self, case):
        # The value cases repeat one shape; each other case differs in
        # the one piece of the shape it is named after.
        first, second = MEMO_CASES[case]
        assert token_shape(first) is not None
        assert (token_shape(first) == token_shape(second)) == (
            case in ("values", "parameters")
        )

    def test_declarations(self):
        class CustomViews(FewestViewsOrder):
            pass

        shaped = [FewestViewsOrder(), FewestUncoveredOrder(),
                  ViewInclusionOrder(REGISTRY), default_order(REGISTRY)]
        unshaped = [
            ParameterOrder(), FewerFactorsOrder(), CustomViews(),
            LexicographicOrder([FewestViewsOrder(), ParameterOrder()]),
            UnshapedChain([FewestViewsOrder()]),
        ]
        assert all(order.decides_by_shape for order in shaped)
        assert not any(order.decides_by_shape for order in unshaped)
        assert CountOrder.decides_by_shape is False

    def test_large_tuples_have_no_shape(self):
        tokens = [ViewCitationToken("V1", (str(n),))
                  for n in range(MAX_SHAPE_TOKENS + 1)]
        polynomial = ProvenancePolynomial(
            {ProvenanceMonomial([token]): 1 for token in tokens}
        )
        assert token_shape([polynomial]) is None
        engine = memo_engine(default_order(REGISTRY))
        assert engine._combine_rewritings([polynomial]) == normal_form(
            polynomial, engine.policy.order
        )
        assert len(engine.absorption_memo) == 0


@pytest.fixture(scope="module")
def perf_inputs(tmp_path_factory):
    """The ``benchmarks/perf`` harness and its inputs at smoke size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERF_DIR))
        harness = importlib.import_module("perf_harness")
    inputs = harness.make_inputs(
        1, harness.SMOKE, tmp_path_factory.mktemp("perf")
    )
    return harness, inputs


def unshaped(engine):
    """An engine like ``engine`` whose order is the same chain, declaring
    no shape: every tuple is decided by the order itself."""
    order = engine.policy.order
    assert isinstance(order, LexicographicOrder)
    return CitationEngine(engine.db, engine.registry, policy=dataclasses.replace(
        engine.policy, order=UnshapedChain(order._orders),
    ))


def cite_all(engine, inputs):
    texts = [*inputs.wide, *inputs.hot]
    return [
        (
            json.dumps(result.citation(), default=str),
            [(output, items(tc.polynomial))
             for output, tc in result.tuples.items()],
            items(result.aggregate_polynomial),
        )
        for result in engine.cite_batch(texts)
    ]


def test_engine_citations_match_reference(perf_inputs, monkeypatch):
    harness, inputs = perf_inputs
    engine = harness.oracle_engine(inputs.project)
    fast = cite_all(engine, inputs)
    assert engine.absorption_memo.hits > 0
    # The reference side asks its order for every tuple: nothing is
    # replayed from a memo.
    reference = unshaped(harness.oracle_engine(inputs.project))
    monkeypatch.setattr(generator, "normal_form", reference_normal_form)
    monkeypatch.setattr(
        generator, "best_polynomials", reference_best_polynomials
    )
    monkeypatch.setattr(generator, "absorbing_sum", reference_absorbing_sum)
    assert cite_all(reference, inputs) == fast
    assert len(reference.absorption_memo) == 0
    assert len(fast) == len(inputs.wide) + len(inputs.hot)


def test_unshaped_order_is_never_memoized(perf_inputs):
    # A parameter-reading level makes the whole chain unshaped: the
    # memo stays empty and every tuple is the per-tuple combination.
    harness, inputs = perf_inputs
    base = harness.oracle_engine(inputs.project)
    engine = CitationEngine(base.db, base.registry, policy=dataclasses.replace(
        base.policy,
        order=LexicographicOrder([FewestUncoveredOrder(), ParameterOrder()]),
    ))
    order = engine.policy.order
    for result in engine.cite_batch([*inputs.wide[-3:], *inputs.hot]):
        for tc in result.tuples.values():
            nonzero = [p for p in tc.per_rewriting if not p.is_zero]
            combined = normal_form(
                engine._plus(best_polynomials(nonzero, order)), order
            )
            assert items(tc.polynomial) == items(combined)
    assert engine.absorption_memo.counters()["size"] == 0
    assert engine.absorption_memo.counters()["misses"] == 0
