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

Absorption is a maximal-elements ("skyline") computation: every order
answers :meth:`MonomialOrder.maximal`, and the polynomial-level
functions below go through it.

An order that reads only a token's kind, view or relation name,
exponent and equality declares :attr:`MonomialOrder.decides_by_shape`;
:func:`token_shape` is what it reads of a tuple, so a citation engine
can decide each tuple shape once and replay the decision.  An order
whose leading levels count what every monomial of a rewriting holds
declares :meth:`MonomialOrder.rewriting_rank`, so a citation engine can
skip the rewritings those levels always absorb before evaluating them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain
from typing import TYPE_CHECKING, TypeVar

from repro.citation.polynomial import (
    CitationMonomial,
    CitationPolynomial,
    base_token_count,
    view_token_count,
)
from repro.citation.tokens import (
    BaseRelationToken,
    CitationToken,
    ViewCitationToken,
)
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial
from repro.util.lru import VersionedLRU
from repro.views.inclusion import view_strictly_finer
from repro.views.registry import ViewRegistry

if TYPE_CHECKING:
    from repro.rewriting.rewriting import Rewriting

T = TypeVar("T")


def _undominated(
    items: Sequence[T], strictly_less: Callable[[T, T], bool]
) -> list[T]:
    """The items no other item strictly dominates, in input order.

    Compares every pair.  It backs the default
    :meth:`MonomialOrder.maximal` and inputs that stay small: one
    monomial's multiplicands, one tuple's rewritings.
    """
    return [
        item for item in items
        if not any(
            other != item and strictly_less(item, other) for other in items
        )
    ]


#: Tuples whose polynomials hold more tokens than this have no shape
#: (:func:`token_shape`), which bounds a memo entry's key: one tuple of
#: ``Q(Ty) :- Family(F, N, Ty)`` holds one monomial per family.
MAX_SHAPE_TOKENS = 64

#: One token of a :func:`token_shape`: ``(index, kind, name, exponent)``.
ShapeToken = tuple[int, str, str, int]
#: A :func:`token_shape`: per polynomial, its ``(tokens, coefficient)``
#: terms.
Shape = tuple[tuple[tuple[tuple[ShapeToken, ...], int], ...], ...]
#: A :meth:`~MonomialOrder.rewriting_rank`: per ranked level, its name
#: and the count every monomial of the rewriting has there.
Rank = tuple[tuple[str, int], ...]


def token_shape(polynomials: Sequence[CitationPolynomial]) -> Shape | None:
    """All that an order that :attr:`~MonomialOrder.decides_by_shape`
    reads of ``polynomials``; None past :data:`MAX_SHAPE_TOKENS` tokens.

    Each polynomial becomes its ``(monomial shape, coefficient)`` pairs
    in canonical term order, and a monomial shape is its tokens in
    canonical order, each written ``(index, kind, name, exponent)``:
    the index numbers distinct tokens in first-seen order across the
    whole list, so the shape records which tokens are equal across
    polynomials; the kind is ``"view"`` or ``"base"`` and the name is
    the token's view or relation.

    Two lists of equal shape correspond position by position through a
    one-to-one map between their tokens that keeps kind, name, exponent
    and equality, everything such an order reads, so every absorption
    decision agrees position by position.  Coefficients stay in:
    :func:`best_polynomials` deduplicates equal polynomials, and ``m``
    and ``2·m`` are two different polynomials.  A token of any other
    kind leaves the list without a shape.
    """
    indices: dict[CitationToken, int] = {}
    count = 0
    shape = []
    for polynomial in polynomials:
        terms = []
        for monomial, coefficient in polynomial.terms.items():
            powers = monomial.powers
            count += len(powers)
            if count > MAX_SHAPE_TOKENS:
                return None
            tokens = []
            for token, exponent in powers.items():
                index = indices.setdefault(token, len(indices))
                if isinstance(token, ViewCitationToken):
                    tokens.append((index, "view", token.view_name, exponent))
                elif isinstance(token, BaseRelationToken):
                    tokens.append((index, "base", token.relation, exponent))
                else:
                    return None
            terms.append((tuple(tokens), coefficient))
        shape.append(tuple(terms))
    return tuple(shape)


class MonomialOrder:
    """A partial (pre-)order over citation monomials.

    ``leq(m1, m2)`` reads "m2 is at least as preferable as m1".
    Implementations must be reflexive and transitive; antisymmetry is not
    required (the paper's Example 3.6 order is a total preorder).

    Absorption asks an order one question, :meth:`maximal`.  A custom
    order may define only ``leq``: the default :meth:`maximal` then
    compares every pair, O(n²) ``leq`` calls for n monomials.  An order
    that ranks monomials by a number should subclass :class:`CountOrder`
    and define ``count`` instead: its :meth:`maximal` is one pass, and a
    :class:`LexicographicOrder` narrows to its best class before any
    later level is asked.  An override of :meth:`maximal` must return
    exactly what the default returns.

    :attr:`decides_by_shape` declares that the order reads nothing of a
    token but what :func:`token_shape` keeps: its kind, its view or
    relation name, its exponent, and which tokens are equal — never a
    λ-parameter value.  A citation engine then decides absorption once
    per tuple shape and replays the decision on later tuples of that
    shape.  The declaration is not inherited: a subclass that does not
    set it in its own body keeps the default, ``False``, and is asked
    for every tuple.  Set it only when every decision follows from the
    shape; an order that reads parameter values must keep the default.

    :meth:`rewriting_rank` is declared the same way, per class and never
    inherited: a subclass that does not define it in its own body ranks
    nothing, and a citation engine then evaluates every rewriting.
    """

    #: Whether every decision follows from :func:`token_shape` alone
    #: (see the class docstring).  Set per class, never inherited.
    decides_by_shape = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "decides_by_shape" not in cls.__dict__:
            cls.decides_by_shape = False
        if "rewriting_rank" not in cls.__dict__:
            cls.rewriting_rank = MonomialOrder.rewriting_rank  # type: ignore[method-assign]

    def rewriting_rank(self, rewriting: Rewriting) -> Rank:
        """What every Def 3.1 monomial of ``rewriting`` counts at this
        order's leading levels; ``()`` when the order declares no rank.

        Def 3.1 builds one view token per view application and one
        ``C_R`` token per uncovered atom into each monomial of a
        rewriting, so a level that counts those tokens with multiplicity
        counts the same for all of them.  A declared rank must keep two
        promises: between two rewritings of one rank every monomial pair
        is equivalent at the ranked levels, and every monomial of a
        rewriting of a higher rank (compared as tuples) is strictly
        below every monomial of one of a lower rank.
        """
        return ()

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        raise NotImplementedError

    def strictly_less(
        self, m1: CitationMonomial, m2: CitationMonomial
    ) -> bool:
        """``m1 < m2``: dominated and not equivalent."""
        return self.leq(m1, m2) and not self.leq(m2, m1)

    def equivalent(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return self.leq(m1, m2) and self.leq(m2, m1)

    def maximal(
        self, monomials: Sequence[CitationMonomial]
    ) -> list[CitationMonomial]:
        """The monomials no other monomial strictly dominates, in input
        order: what Section 3.4's normal form keeps."""
        return _undominated(monomials, self.strictly_less)

    def _among(self, monomials: Sequence[CitationMonomial]) -> tuple[
        Callable[[Sequence[CitationMonomial]], list[CitationMonomial]],
        Callable[[CitationMonomial, CitationMonomial], bool],
    ]:
        """:meth:`maximal` and :meth:`leq` for one call that compares
        only ``monomials`` and their subsets: an order that derives
        something per monomial before comparing derives it once here."""
        return self.maximal, self.leq


class CountOrder(MonomialOrder):
    """Rank monomials by a count, lower preferred.

    ``m1 ≤ m2`` iff ``count(m1) >= count(m2)``.  This is a total
    preorder, so the undominated monomials are exactly the minimum-count
    class.

    A subclass declares :attr:`~MonomialOrder.decides_by_shape` itself
    when its ``count`` reads no λ-parameter value, as
    :class:`FewestViewsOrder` and :class:`FewestUncoveredOrder` do;
    without it, its decisions are never replayed.
    """

    def count(self, monomial: CitationMonomial) -> int:
        raise NotImplementedError

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return self.count(m1) >= self.count(m2)

    def maximal(
        self, monomials: Sequence[CitationMonomial]
    ) -> list[CitationMonomial]:
        counts = [self.count(monomial) for monomial in monomials]
        best = min(counts, default=0)
        return [
            monomial
            for monomial, count in zip(monomials, counts)
            if count == best
        ]


class FewestViewsOrder(CountOrder):
    """Example 3.6: prefer monomials with fewer view multiplicands."""

    decides_by_shape = True

    def count(self, monomial: CitationMonomial) -> int:
        return view_token_count(monomial)

    def rewriting_rank(self, rewriting: Rewriting) -> Rank:
        return (("fewest views", len(rewriting.applications)),)


class FewestUncoveredOrder(CountOrder):
    """Example 3.7: prefer monomials with fewer ``C_R`` atoms."""

    decides_by_shape = True

    def count(self, monomial: CitationMonomial) -> int:
        return base_token_count(monomial)

    def rewriting_rank(self, rewriting: Rewriting) -> Rank:
        return (("fewest uncovered", len(rewriting.uncovered_atoms)),)


class ViewInclusionOrder(MonomialOrder):
    """Example 3.8: prefer citations from included ("best fit") views.

    Token level: ``a ≤ b`` when b's view is strictly finer than a's view
    (``V_b ⊆ V_a``), or the tokens are equal.  ``C_R`` tokens are the
    least-preferred: any view token dominates them.  Monomials are first
    normalized (``a · b = a`` if ``b ≤ a``: dominated multiplicands are
    dropped), then compared by Hoare domination: ``m1 ≤ m2`` iff every
    multiplicand of m1's normal form is ≤ some multiplicand of m2's.

    It reads token equality and view names, and the registry's views
    under those names, which never change (:meth:`ViewRegistry.add`
    refuses a second view of one name).
    """

    decides_by_shape = True

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

    def _token_strictly_less(
        self, a: CitationToken, b: CitationToken
    ) -> bool:
        return self.token_leq(a, b) and not self.token_leq(b, a)

    def _normal_tokens(
        self, monomial: CitationMonomial
    ) -> list[CitationToken]:
        """The multiplicands of ``monomial``'s normal form."""
        return _undominated(monomial.tokens(), self._token_strictly_less)

    def normalize_monomial(self, monomial: CitationMonomial) -> CitationMonomial:
        """Drop multiplicands dominated by another multiplicand."""
        return ProvenanceMonomial(self._normal_tokens(monomial))

    def _covers(
        self, low: Sequence[CitationToken], high: Sequence[CitationToken]
    ) -> bool:
        """Hoare domination of normalized multiplicands."""
        return all(any(self.token_leq(a, b) for b in high) for a in low)

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        return self._covers(self._normal_tokens(m1), self._normal_tokens(m2))

    def maximal(
        self, monomials: Sequence[CitationMonomial]
    ) -> list[CitationMonomial]:
        """Normalize each monomial once, then compare it only with the
        monomials that can cover its rarest multiplicand.

        A monomial that dominates ``m`` covers every multiplicand of
        m's normal form, so it holds the same token, a token of a
        strictly finer view, or (for a ``C_R`` token) any view token.
        An inverted index built for this call finds those monomials.
        """
        return self._maximal(
            monomials, [self._normal_tokens(m) for m in monomials]
        )

    def _among(self, monomials: Sequence[CitationMonomial]) -> tuple[
        Callable[[Sequence[CitationMonomial]], list[CitationMonomial]],
        Callable[[CitationMonomial, CitationMonomial], bool],
    ]:
        forms = {
            monomial: self._normal_tokens(monomial)
            for monomial in dict.fromkeys(monomials)
        }

        def maximal(
            subset: Sequence[CitationMonomial],
        ) -> list[CitationMonomial]:
            return self._maximal(subset, [forms[m] for m in subset])

        def leq(m1: CitationMonomial, m2: CitationMonomial) -> bool:
            return self._covers(forms[m1], forms[m2])

        return maximal, leq

    def _maximal(
        self,
        monomials: Sequence[CitationMonomial],
        forms: list[list[CitationToken]],
    ) -> list[CitationMonomial]:
        """:meth:`maximal`, given each monomial's normal form."""
        by_token: dict[CitationToken, list[int]] = {}
        by_view: dict[str, list[int]] = {}
        with_views: list[int] = []
        for index, tokens in enumerate(forms):
            for token in tokens:
                by_token.setdefault(token, []).append(index)
                if isinstance(token, ViewCitationToken):
                    by_view.setdefault(token.view_name, []).append(index)
            if any(isinstance(token, ViewCitationToken) for token in tokens):
                with_views.append(index)
        finer_views = {
            name: [other for other in by_view if self._finer(other, name)]
            for name in by_view
        }

        def coverers(token: CitationToken) -> list[list[int]]:
            if isinstance(token, ViewCitationToken):
                return [by_token[token]] + [
                    by_view[name] for name in finer_views[token.view_name]
                ]
            return [by_token[token], with_views]

        # Every monomial covers the unit monomial's empty normal form.
        unit_dominated = any(forms)
        kept: list[CitationMonomial] = []
        for index, tokens in enumerate(forms):
            if not tokens:
                dominated = unit_dominated
            else:
                candidates = min(
                    map(coverers, tokens),
                    key=lambda lists: sum(map(len, lists)),
                )
                dominated = any(
                    other != index
                    and self._covers(tokens, forms[other])
                    and not self._covers(forms[other], tokens)
                    for other in chain.from_iterable(candidates)
                )
            if not dominated:
                kept.append(monomials[index])
        return kept


class LexicographicOrder(MonomialOrder):
    """Compose orders with decreasing priority.

    ``m1 ≤ m2`` iff at the first order where they are not equivalent,
    ``m1 ≤ m2`` holds (and they are ≤ when equivalent everywhere).
    It decides by shape when every level does, and ranks rewritings by
    its leading levels that declare a rank.  A level that is itself a
    plain ``LexicographicOrder`` is spliced in level by level, which
    orders alike.
    """

    def __init__(self, orders: Sequence[MonomialOrder]) -> None:
        if not orders:
            raise ValueError("LexicographicOrder needs at least one order")
        self._orders = tuple(chain.from_iterable(
            order._orders if type(order) is LexicographicOrder else (order,)
            for order in orders
        ))

    @property  # type: ignore[override]
    def decides_by_shape(self) -> bool:
        return all(order.decides_by_shape for order in self._orders)

    def rewriting_rank(self, rewriting: Rewriting) -> Rank:
        rank: Rank = ()
        for order in self._orders:
            level = order.rewriting_rank(rewriting)
            if not level:
                break
            rank += level
        return rank

    def leq(self, m1: CitationMonomial, m2: CitationMonomial) -> bool:
        for order in self._orders:
            if isinstance(order, CountOrder):
                count1, count2 = order.count(m1), order.count(m2)
                if count1 != count2:
                    return count1 > count2
            elif not order.leq(m1, m2):
                return False
            elif not order.leq(m2, m1):
                return True
        return True

    def maximal(
        self, monomials: Sequence[CitationMonomial]
    ) -> list[CitationMonomial]:
        """Keep each leading count order's best class, then hand the
        survivors to the remaining levels: narrowed by the first of them
        alone, then compared pairwise, each level deriving what it reads
        of a monomial once per call.

        Exact: a monomial outside a leading level's best class is
        strictly below every member of that class.  Past the count
        levels the survivors are equivalent at every earlier level, so
        one strictly below another at the next level is strictly below
        it lexicographically; as strict lexicographic domination is
        transitive, each monomial dominated among the survivors is also
        dominated by one of that level's maximal monomials.
        """
        survivors = list(monomials)
        for index, order in enumerate(self._orders):
            if len(survivors) < 2:
                break
            if not isinstance(order, CountOrder):
                rest = self._orders[index:]
                if len(rest) == 1:
                    return order.maximal(survivors)
                narrow, leq = order._among(survivors)
                survivors = narrow(survivors)
                if len(survivors) < 2:
                    return survivors
                levels = [leq] + [
                    level._among(survivors)[1] for level in rest[1:]
                ]

                def strictly_less(
                    m1: CitationMonomial, m2: CitationMonomial
                ) -> bool:
                    for level_leq in levels:
                        below = level_leq(m1, m2)
                        if below != level_leq(m2, m1):
                            return below
                        if not below:
                            return False
                    return False

                return _undominated(survivors, strictly_less)
            survivors = order.maximal(survivors)
        return survivors


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
    terms = polynomial.terms
    kept = order.maximal(list(terms))
    if len(kept) == len(terms):
        return polynomial
    return ProvenancePolynomial(
        {monomial: terms[monomial] for monomial in kept}
    )


def _covered(
    nf1: CitationPolynomial, nf2: CitationPolynomial, order: MonomialOrder
) -> bool:
    """Every monomial of ``nf1`` is ≤ some monomial of ``nf2``."""
    monomials2 = nf2.monomials()
    return all(
        any(order.leq(m1, m2) for m2 in monomials2)
        for m1 in nf1.monomials()
    )


def polynomial_leq(
    p1: CitationPolynomial,
    p2: CitationPolynomial,
    order: MonomialOrder,
) -> bool:
    """``p1 ≤ p2``: every NF-monomial of p1 is ≤ some NF-monomial of p2."""
    return _covered(normal_form(p1, order), normal_form(p2, order), order)


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
    kept (the caller unions them afterwards), each once, in input order.
    """
    forms = {
        polynomial: normal_form(polynomial, order)
        for polynomial in dict.fromkeys(polynomials)
    }

    def strictly_less(p1: CitationPolynomial, p2: CitationPolynomial) -> bool:
        return (_covered(forms[p1], forms[p2], order)
                and not _covered(forms[p2], forms[p1], order))

    return _undominated(list(forms), strictly_less)
