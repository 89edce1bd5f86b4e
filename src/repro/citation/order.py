"""Order relations over citation monomials and polynomials (Section 3.4).

The paper encodes preference through a partial order ``≤`` over monomials
and imposes *absorption*: ``a + b = a`` whenever ``b ≤ a``, lifted to
polynomials via normal forms and to ``+R`` via ``p1 +R p2 = p1`` when
``p2 ≤ p1``.  Three concrete orders are given as examples:

- :class:`FewestViewsOrder` (Example 3.6) — ``M1 ≤ M2`` iff M1 has at
  least as many view multiplicands as M2 (fewer views preferred);
- :class:`FewestUncoveredOrder` (Example 3.7) — compare by number of
  ``C_R`` atoms (fewer base-relation accesses preferred);
- :class:`ViewInclusionOrder` (Example 3.8) — a citation from view ``V2``
  dominates one from ``V1`` when ``V2`` is included in ``V1`` ("best
  fit"); lifted to monomials by Hoare-style domination after per-monomial
  normalization.

:class:`LexicographicOrder` composes orders with decreasing priority.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.citation.polynomial import (
    CitationMonomial,
    CitationPolynomial,
    base_token_count,
    view_token_count,
)
from repro.citation.tokens import CitationToken, ViewCitationToken
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial
from repro.util.lru import VersionedLRU
from repro.views.inclusion import view_strictly_finer
from repro.views.registry import ViewRegistry


class MonomialOrder:
    """A partial (pre-)order over citation monomials.

    ``leq(m1, m2)`` reads "m2 is at least as preferable as m1".
    Implementations must be reflexive and transitive; antisymmetry is not
    required (the paper's Example 3.6 order is a total preorder).
    """

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        raise NotImplementedError

    def strictly_less(
        self, m1: CitationMonomial, m2: CitationMonomial
    ) -> bool:
        """``m1 < m2``: dominated and not equivalent."""
        return self.leq(m1, m2) and not self.leq(m2, m1)

    def equivalent(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return self.leq(m1, m2) and self.leq(m2, m1)


class FewestViewsOrder(MonomialOrder):
    """Example 3.6: prefer monomials with fewer view multiplicands."""

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return view_token_count(m1) >= view_token_count(m2)


class FewestUncoveredOrder(MonomialOrder):
    """Example 3.7: prefer monomials with fewer ``C_R`` atoms."""

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return base_token_count(m1) >= base_token_count(m2)


class ViewInclusionOrder(MonomialOrder):
    """Example 3.8: prefer citations from included ("best fit") views.

    Token level: ``a ≤ b`` when b's view is strictly finer than a's view
    (``V_b ⊆ V_a``), or the tokens are equal.  ``C_R`` tokens are the
    least-preferred: any view token dominates them.  Monomials are first
    normalized (``a · b = a`` if ``b ≤ a``: dominated multiplicands are
    dropped), then compared by Hoare domination: ``m1 ≤ m2`` iff every
    multiplicand of m1's normal form is ≤ some multiplicand of m2's.
    """

    def __init__(self, registry: ViewRegistry) -> None:
        self._registry = registry
        # Cache pairwise strict-finer decisions (containment checks are
        # not free).  The domain is view-name pairs, so the bound only
        # matters for very large registries — but every cache is bounded.
        self._finer_cache: VersionedLRU[tuple[str, str], bool] = (
            VersionedLRU(4096, "view-inclusion cache")
        )

    def _finer(self, finer_name: str, coarser_name: str) -> bool:
        key = (finer_name, coarser_name)
        cached = self._finer_cache.get(key)
        if cached is None:
            cached = view_strictly_finer(
                self._registry.get(finer_name),
                self._registry.get(coarser_name),
            )
            self._finer_cache.put(key, cached)
        return cached

    def token_leq(self, a: CitationToken, b: CitationToken) -> bool:
        """Is token ``b`` at least as preferable as token ``a``?"""
        if a == b:
            return True
        a_is_view = isinstance(a, ViewCitationToken)
        b_is_view = isinstance(b, ViewCitationToken)
        if not a_is_view and b_is_view:
            return True  # any view citation beats a bare C_R
        if a_is_view and b_is_view:
            return self._finer(b.view_name, a.view_name)
        return False

    def normalize_monomial(self, monomial: CitationMonomial) -> CitationMonomial:
        """Drop multiplicands dominated by another multiplicand."""
        tokens = monomial.tokens()
        kept: list[CitationToken] = []
        for token in tokens:
            dominated = any(
                other != token and self.token_leq(token, other)
                and not self.token_leq(other, token)
                for other in tokens
            )
            if not dominated:
                kept.append(token)
        return ProvenanceMonomial(kept)

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        n1 = self.normalize_monomial(m1)
        n2 = self.normalize_monomial(m2)
        return all(
            any(self.token_leq(a, b) for b in n2.tokens())
            for a in n1.tokens()
        )


class LexicographicOrder(MonomialOrder):
    """Compose orders with decreasing priority.

    ``m1 ≤ m2`` iff at the first order where they are not equivalent,
    ``m1 ≤ m2`` holds (and they are ≤ when equivalent everywhere).
    """

    def __init__(self, orders: Sequence[MonomialOrder]) -> None:
        if not orders:
            raise ValueError("LexicographicOrder needs at least one order")
        self._orders = tuple(orders)

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        for order in self._orders:
            if order.equivalent(m1, m2):
                continue
            return order.leq(m1, m2)
        return True


# ---------------------------------------------------------------------------
# Lifting to polynomials (Section 3.4)
# ---------------------------------------------------------------------------


def normal_form(
    polynomial: CitationPolynomial, order: MonomialOrder
) -> CitationPolynomial:
    """Remove every monomial strictly dominated by another monomial.

    The paper removes ``M2`` when some ``M1 ≥ M2`` exists; taken literally
    with preorders this would remove mutually-equivalent monomials too, so
    we drop only *strictly* dominated ones and keep equivalence classes
    intact (their members carry genuinely different citations, e.g. two
    different single-view monomials under Example 3.6's count order).
    """
    monomials = polynomial.monomials()
    kept: dict[CitationMonomial, int] = {}
    for monomial in monomials:
        dominated = any(
            other != monomial and order.strictly_less(monomial, other)
            for other in monomials
        )
        if not dominated:
            kept[monomial] = polynomial.terms[monomial]
    return ProvenancePolynomial(kept)


def polynomial_leq(
    p1: CitationPolynomial,
    p2: CitationPolynomial,
    order: MonomialOrder,
) -> bool:
    """``p1 ≤ p2``: every NF-monomial of p1 is ≤ some NF-monomial of p2."""
    nf1 = normal_form(p1, order)
    nf2 = normal_form(p2, order)
    monomials2 = nf2.monomials()
    return all(
        any(order.leq(m1, m2) for m2 in monomials2)
        for m1 in nf1.monomials()
    )


def absorbing_sum(
    polynomials: Sequence[CitationPolynomial], order: MonomialOrder
) -> CitationPolynomial:
    """``+`` with absorption: union of monomials, then normal form."""
    union: dict[CitationMonomial, int] = {}
    for polynomial in polynomials:
        for monomial, coefficient in polynomial.terms.items():
            union[monomial] = union.get(monomial, 0) + coefficient
    return normal_form(ProvenancePolynomial(union), order)


def best_polynomials(
    polynomials: Sequence[CitationPolynomial], order: MonomialOrder
) -> list[CitationPolynomial]:
    """``+R`` with absorption: drop strictly dominated polynomials.

    ``p1 +R p2 = p1`` when ``p2 ≤ p1``; incomparable polynomials are all
    kept (the caller unions them afterwards).
    """
    kept: list[CitationPolynomial] = []
    for index, candidate in enumerate(polynomials):
        dominated = False
        for other_index, other in enumerate(polynomials):
            if other_index == index or other == candidate:
                continue
            if (polynomial_leq(candidate, other, order)
                    and not polynomial_leq(other, candidate, order)):
                dominated = True
                break
        if not dominated and candidate not in kept:
            kept.append(candidate)
    return kept
