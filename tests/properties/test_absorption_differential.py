"""Differential suite: Section 3.4 absorption ≡ its pairwise definition.

Every order answers ``MonomialOrder.maximal`` with its own shortcut
(one pass for count orders, best-class narrowing for lexicographic
orders, an inverted index for view inclusion).  This module keeps the
all-pairs code those shortcuts replaced as the reference and requires
equal monomials, coefficients and ``best_polynomials`` list order.

The ``benchmarks/perf`` oracle cannot catch an absorption change: it
recomputes replies with the same code the server runs.  The last test
cites that benchmark's wide list and hot set with the generator's
absorption functions swapped for the reference instead.
"""

from __future__ import annotations

import importlib
import json
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
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    MonomialOrder,
    ViewInclusionOrder,
    absorbing_sum,
    best_polynomials,
    normal_form,
    polynomial_leq,
)
from repro.citation.policy_language import parse_policy
from repro.citation.polynomial import monomial_from_tokens
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
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


def cite_all(harness, inputs):
    texts = [*inputs.wide, *inputs.hot]
    engine = harness.oracle_engine(inputs.project)
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
    fast = cite_all(harness, inputs)
    monkeypatch.setattr(generator, "normal_form", reference_normal_form)
    monkeypatch.setattr(
        generator, "best_polynomials", reference_best_polynomials
    )
    monkeypatch.setattr(generator, "absorbing_sum", reference_absorbing_sum)
    assert cite_all(harness, inputs) == fast
    assert len(fast) == len(inputs.wide) + len(inputs.hot)
