"""Tests for the order relations of Section 3.4 (Examples 3.6-3.8)."""

from collections import Counter

import pytest

from repro.citation.generator import CitationEngine
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
from repro.citation.policy import CitationPolicy
from repro.citation.policy_language import parse_policy
from repro.citation.polynomial import (
    idempotent_sum,
    monomial_from_tokens,
    polynomial_from_monomials,
)
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.views import paper_registry
from repro.semiring.polynomial import ProvenancePolynomial


def vt(name, *params):
    return ViewCitationToken(name, params)


def mono(*tokens):
    return monomial_from_tokens(list(tokens))


def poly(*monomials):
    return polynomial_from_monomials(list(monomials))


M1 = mono(vt("V1", "11"), vt("V2", "11"))      # two views
M2 = mono(vt("V5", "gpcr"))                     # one view
M3 = mono(vt("V1", "11"), BaseRelationToken("FC"))  # view + C_R
M4 = mono(vt("V4", "gpcr"))                     # one view


class TestFewestViewsOrder:
    """Example 3.6: more multiplicands => smaller."""

    order = FewestViewsOrder()

    def test_fewer_views_preferred(self):
        assert self.order.leq(M1, M2)
        assert not self.order.leq(M2, M1)
        assert self.order.strictly_less(M1, M2)

    def test_equal_counts_equivalent(self):
        assert self.order.equivalent(M2, M4)

    def test_base_tokens_not_counted(self):
        # M3 has one view + one C_R: view count 1, same as M2.
        assert self.order.equivalent(M2, M3)

    def test_reflexive(self):
        for m in (M1, M2, M3):
            assert self.order.leq(m, m)


class TestFewestUncoveredOrder:
    """Example 3.7: more C_R atoms => smaller."""

    order = FewestUncoveredOrder()

    def test_fewer_uncovered_preferred(self):
        assert self.order.strictly_less(M3, M2)

    def test_views_not_counted(self):
        assert self.order.equivalent(M1, M2)


class TestViewInclusionOrder:
    """Example 3.8: included ('best fit') views preferred."""

    @pytest.fixture
    def order(self, registry):
        return ViewInclusionOrder(registry)

    def test_finer_view_dominates(self, order):
        # V1 (λF) strictly finer than V3 (no λ): a V3 citation is ≤ a V1.
        a = mono(vt("V3"))
        b = mono(vt("V1", "11"))
        assert order.leq(a, b)
        assert not order.leq(b, a)

    def test_view_beats_base_relation(self, order):
        a = mono(BaseRelationToken("Family"))
        b = mono(vt("V1", "11"))
        assert order.strictly_less(a, b)

    def test_incomparable_views(self, order):
        a = mono(vt("V1", "11"))
        b = mono(vt("V2", "11"))
        assert not order.strictly_less(a, b)
        assert not order.strictly_less(b, a)

    def test_monomial_normalization_drops_dominated(self, order):
        m = mono(vt("V1", "11"), vt("V3"))
        normalized = order.normalize_monomial(m)
        assert normalized.tokens() == [vt("V1", "11")]

    def test_hoare_domination(self, order):
        small = mono(vt("V3"), BaseRelationToken("FC"))
        large = mono(vt("V1", "11"), vt("V2", "11"))
        # V3 ≤ V1 and C_R ≤ anything-view: small ≤ large.
        assert order.leq(small, large)


class TestLexicographicOrder:
    def test_priority_respected(self):
        order = LexicographicOrder([
            FewestUncoveredOrder(), FewestViewsOrder(),
        ])
        # M3 has a C_R: loses at priority 1 even though view counts tie.
        assert order.strictly_less(M3, M2)
        # No C_R anywhere: falls through to view counting.
        assert order.strictly_less(M1, M2)

    def test_empty_orders_rejected(self):
        with pytest.raises(ValueError):
            LexicographicOrder([])

    def test_all_equivalent_is_leq(self):
        order = LexicographicOrder([FewestViewsOrder()])
        assert order.leq(M2, M4) and order.leq(M4, M2)


def pairwise_normal_form(polynomial, order):
    """Section 3.4's normal form by its definition: every monomial
    against every other."""
    monomials = polynomial.monomials()
    return ProvenancePolynomial({
        monomial: polynomial.terms[monomial]
        for monomial in monomials
        if not any(
            other != monomial and order.strictly_less(monomial, other)
            for other in monomials
        )
    })


class TestPartialOrderFirst:
    """A chain whose first level is not a count order narrows by that
    level's own ``maximal`` before comparing the survivors pairwise, and
    normalizes each monomial once per ``maximal`` call."""

    @pytest.fixture(scope="class")
    def cited(self):
        registry = paper_registry()
        db = GtopdbGenerator(families=40, persons=20, types=3).build()
        counts = Counter(row[2] for row in db.relation("Family"))
        largest = max(sorted(counts), key=counts.__getitem__)
        order = parse_policy(
            "policy p { plusR = best order = view-inclusion > fewest-views }",
            registry,
        ).order
        engine = CitationEngine(db, registry, policy=CitationPolicy(
            name="partial first", plus_r="best", order=order,
        ))
        result = engine.cite(
            "Q(N1, N2) :- Family(F1, N1, Ty), Family(F2, N2, Ty), "
            f'Ty = "{largest}"'
        )
        aggregate = idempotent_sum(
            tc.polynomial for tc in result.tuples.values()
        )
        return order, result, aggregate, pairwise_normal_form(
            aggregate, order
        )

    def test_matches_all_pairs(self, cited):
        __, result, aggregate, expected = cited
        assert (len(result.tuples), len(aggregate.terms)) == (441, 231)
        assert list(result.aggregate_polynomial.terms.items()) == list(
            expected.terms.items()
        )

    def test_normalizes_each_monomial_once(self, cited, monkeypatch):
        order, __, aggregate, expected = cited
        calls = Counter()
        normalize = ViewInclusionOrder._normal_tokens

        def counted(self, monomial):
            calls[monomial] += 1
            return normalize(self, monomial)

        monkeypatch.setattr(ViewInclusionOrder, "_normal_tokens", counted)
        monomials = aggregate.monomials()
        assert order.maximal(monomials) == expected.monomials()
        assert set(calls) == set(monomials)
        assert max(calls.values()) == 1


class TestNormalForm:
    order = FewestViewsOrder()

    def test_dominated_monomials_removed(self):
        p = poly(M1, M2)
        nf = normal_form(p, self.order)
        assert nf.monomials() == [M2]

    def test_equivalent_monomials_kept(self):
        p = poly(M2, M4)
        nf = normal_form(p, self.order)
        assert set(nf.monomials()) == {M2, M4}

    def test_zero_stays_zero(self):
        assert normal_form(poly(), self.order).is_zero


class TestPolynomialOrder:
    order = FewestViewsOrder()

    def test_polynomial_leq(self):
        assert polynomial_leq(poly(M1), poly(M2), self.order)
        assert not polynomial_leq(poly(M2), poly(M1), self.order)

    def test_absorbing_sum(self):
        combined = absorbing_sum([poly(M1), poly(M2)], self.order)
        assert combined.monomials() == [M2]

    def test_best_polynomials_drops_dominated(self):
        kept = best_polynomials([poly(M1), poly(M2)], self.order)
        assert kept == [poly(M2)]

    def test_best_polynomials_keeps_incomparable(self):
        kept = best_polynomials([poly(M2), poly(M4)], self.order)
        assert len(kept) == 2

    def test_best_polynomials_dedupes(self):
        kept = best_polynomials([poly(M2), poly(M2)], self.order)
        assert kept == [poly(M2)]
