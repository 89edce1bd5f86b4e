"""Property-based tests for the order relations of Section 3.4."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    ViewInclusionOrder,
    absorbing_sum,
    best_polynomials,
    normal_form,
    polynomial_leq,
)
from repro.citation.policy import default_order
from repro.citation.polynomial import monomial_from_tokens
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.gtopdb.views import paper_registry
from repro.semiring.polynomial import ProvenancePolynomial

REGISTRY = paper_registry()

# V3 has no λ-parameter: V1 and V4 are strictly finer than it, which
# gives the view-inclusion order comparable pairs.
view_tokens = st.one_of(
    st.builds(
        ViewCitationToken,
        st.sampled_from(["V1", "V2", "V4", "V5"]),
        st.tuples(st.sampled_from(["11", "13", "gpcr"])),
    ),
    st.just(ViewCitationToken("V3")),
)
base_tokens = st.builds(
    BaseRelationToken, st.sampled_from(["FC", "Person", "MetaData"])
)
citation_tokens = st.one_of(view_tokens, base_tokens)


@st.composite
def citation_monomials(draw):
    return monomial_from_tokens(
        draw(st.lists(citation_tokens, min_size=0, max_size=4))
    )


@st.composite
def citation_polynomials(draw):
    monomials = draw(st.lists(citation_monomials(), min_size=0,
                              max_size=4))
    return ProvenancePolynomial(dict.fromkeys(monomials, 1))


ORDERS = [
    FewestViewsOrder(),
    FewestUncoveredOrder(),
    LexicographicOrder([FewestUncoveredOrder(), FewestViewsOrder()]),
    ViewInclusionOrder(REGISTRY),
    default_order(REGISTRY),
]
order_strategy = st.sampled_from(ORDERS)


class TestPreorderLaws:
    @given(order_strategy, citation_monomials())
    def test_reflexive(self, order, m):
        assert order.leq(m, m)

    @given(order_strategy, citation_monomials(), citation_monomials(),
           citation_monomials())
    @settings(max_examples=100)
    def test_transitive(self, order, a, b, c):
        if order.leq(a, b) and order.leq(b, c):
            assert order.leq(a, c)

    @given(order_strategy, citation_monomials(), citation_monomials())
    def test_strictly_less_asymmetric(self, order, a, b):
        if order.strictly_less(a, b):
            assert not order.strictly_less(b, a)


class TestNormalFormLaws:
    @given(order_strategy, citation_polynomials())
    def test_normal_form_is_subset(self, order, p):
        nf = normal_form(p, order)
        assert set(nf.monomials()) <= set(p.monomials())

    @given(order_strategy, citation_polynomials())
    def test_normal_form_idempotent(self, order, p):
        nf = normal_form(p, order)
        assert normal_form(nf, order) == nf

    @given(order_strategy, citation_polynomials())
    @settings(max_examples=100)
    def test_every_dropped_monomial_dominated(self, order, p):
        nf = normal_form(p, order)
        kept = nf.monomials()
        for monomial in p.monomials():
            if monomial not in kept:
                assert any(
                    order.strictly_less(monomial, other) for other in kept
                )

    @given(order_strategy, citation_polynomials())
    def test_normal_form_equivalent_under_polynomial_order(self, order, p):
        nf = normal_form(p, order)
        assert polynomial_leq(nf, p, order)
        assert polynomial_leq(p, nf, order)


class TestAbsorption:
    @given(order_strategy, citation_polynomials(), citation_polynomials())
    @settings(max_examples=100)
    def test_absorbing_sum_dominates_both(self, order, p, q):
        combined = absorbing_sum([p, q], order)
        assert polynomial_leq(p, combined, order)
        assert polynomial_leq(q, combined, order)

    @given(order_strategy, citation_polynomials())
    def test_absorbing_sum_with_zero(self, order, p):
        zero = ProvenancePolynomial.zero()
        assert absorbing_sum([p, zero], order) == normal_form(p, order)

    @given(order_strategy,
           st.lists(citation_polynomials(), min_size=1, max_size=4))
    @settings(max_examples=75)
    def test_best_polynomials_are_maximal(self, order, polys):
        kept = best_polynomials(polys, order)
        assert kept, "at least one polynomial must survive"
        for survivor in kept:
            dominated = any(
                other != survivor
                and polynomial_leq(survivor, other, order)
                and not polynomial_leq(other, survivor, order)
                for other in polys
            )
            assert not dominated

    @given(order_strategy,
           st.lists(citation_polynomials(), min_size=1, max_size=4))
    @settings(max_examples=75)
    def test_every_input_dominated_by_a_survivor(self, order, polys):
        kept = best_polynomials(polys, order)
        for polynomial in polys:
            assert any(
                polynomial_leq(polynomial, survivor, order)
                for survivor in kept
            )
