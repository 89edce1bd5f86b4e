"""Provenance polynomials: the free commutative semiring ℕ[X].

ℕ[X] is *universal* among commutative semirings (Green et al., PODS 2007):
evaluate a query once with polynomial annotations, then specialize the
tokens to any other semiring via :meth:`ProvenancePolynomial.specialize`.
The citation algebra (:mod:`repro.citation.polynomial`) reuses the same
monomial/polynomial representation with citation tokens.

Representation
--------------
- :class:`ProvenanceMonomial`: a multiset of tokens (token -> exponent),
  canonicalized and hashable.
- :class:`ProvenancePolynomial`: a map monomial -> positive integer
  coefficient; the zero polynomial has no monomials.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.semiring.base import Semiring


class ProvenanceMonomial:
    """A commutative product of tokens with multiplicities, e.g. ``x²y``.

    Its ``repr`` is computed once and kept: polynomials sort their
    monomials by it on every construction.
    """

    __slots__ = ("_powers", "_hash", "_repr")

    def __init__(self, powers: Mapping[Any, int] | Iterable[Any] = ()) -> None:
        if isinstance(powers, Mapping):
            items = {
                token: exponent
                for token, exponent in powers.items()
                if exponent > 0
            }
        else:
            items = {}
            for token in powers:
                items[token] = items.get(token, 0) + 1
        # Canonical order by repr for deterministic display and hashing.
        self._powers: dict[Any, int] = dict(
            sorted(items.items(), key=lambda kv: repr(kv[0]))
        )
        self._hash = hash(frozenset(self._powers.items()))
        self._repr: str | None = None

    # -- inspection -----------------------------------------------------------

    @property
    def powers(self) -> Mapping[Any, int]:
        return dict(self._powers)

    def tokens(self) -> list[Any]:
        """Distinct tokens, in canonical order."""
        return list(self._powers)

    @property
    def degree(self) -> int:
        """Total degree (sum of exponents)."""
        return sum(self._powers.values())

    @property
    def is_one(self) -> bool:
        return not self._powers

    def support(self) -> frozenset:
        """Set of distinct tokens (drop exponents)."""
        return frozenset(self._powers)

    # -- algebra ----------------------------------------------------------------

    def multiply(self, other: "ProvenanceMonomial") -> "ProvenanceMonomial":
        powers = dict(self._powers)
        for token, exponent in other._powers.items():
            powers[token] = powers.get(token, 0) + exponent
        return ProvenanceMonomial(powers)

    def dropped_exponents(self) -> "ProvenanceMonomial":
        """Idempotent-· image: every exponent clamped to 1 (e.g. for Trio)."""
        return ProvenanceMonomial(dict.fromkeys(self._powers, 1))

    def divides(self, other: "ProvenanceMonomial") -> bool:
        """Does this monomial divide ``other`` (pointwise ≤ exponents)?"""
        return all(
            other._powers.get(token, 0) >= exponent
            for token, exponent in self._powers.items()
        )

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceMonomial):
            return NotImplemented
        return self._powers == other._powers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self._repr is None:
            parts = []
            for token, exponent in self._powers.items():
                text = str(token)
                parts.append(text if exponent == 1 else f"{text}^{exponent}")
            self._repr = "·".join(parts) if parts else "1"
        return self._repr


class ProvenancePolynomial:
    """An element of ℕ[X]: a sum of monomials with ℕ coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(
        self, terms: Mapping[ProvenanceMonomial, int] | None = None
    ) -> None:
        cleaned = {
            monomial: coefficient
            for monomial, coefficient in (terms or {}).items()
            if coefficient > 0
        }
        self._terms: dict[ProvenanceMonomial, int] = dict(
            sorted(cleaned.items(), key=lambda kv: repr(kv[0]))
        )
        self._hash = hash(frozenset(self._terms.items()))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls) -> "ProvenancePolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "ProvenancePolynomial":
        return cls({ProvenanceMonomial(): 1})

    @classmethod
    def token(cls, token: Any) -> "ProvenancePolynomial":
        """The polynomial consisting of a single variable."""
        return cls({ProvenanceMonomial([token]): 1})

    # -- inspection -------------------------------------------------------------

    @property
    def terms(self) -> Mapping[ProvenanceMonomial, int]:
        return dict(self._terms)

    def monomials(self) -> list[ProvenanceMonomial]:
        return list(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> frozenset:
        result: set = set()
        for monomial in self._terms:
            result.update(monomial.support())
        return frozenset(result)

    # -- algebra ------------------------------------------------------------------

    def add(self, other: "ProvenancePolynomial") -> "ProvenancePolynomial":
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return ProvenancePolynomial(terms)

    def multiply(self, other: "ProvenancePolynomial") -> "ProvenancePolynomial":
        terms: dict[ProvenanceMonomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                product = m1.multiply(m2)
                terms[product] = terms.get(product, 0) + c1 * c2
        return ProvenancePolynomial(terms)

    def specialize(
        self, semiring: Semiring, valuation: Callable[[Any], Any]
    ) -> Any:
        """Evaluate the polynomial in another semiring.

        ``valuation`` maps each token to an element of ``semiring``; the
        universality of ℕ[X] guarantees this commutes with query
        evaluation.
        """
        total = semiring.zero
        for monomial, coefficient in self._terms.items():
            product = semiring.one
            for token, exponent in monomial.powers.items():
                value = valuation(token)
                for __ in range(exponent):
                    product = semiring.multiply(product, value)
            term = semiring.zero
            for __ in range(coefficient):
                term = semiring.add(term, product)
            total = semiring.add(total, term)
        return total

    # -- value semantics --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenancePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in self._terms.items():
            if coefficient == 1:
                parts.append(str(monomial))
            else:
                parts.append(f"{coefficient}·{monomial}")
        return " + ".join(parts)


class PolynomialSemiring(Semiring[ProvenancePolynomial]):
    """ℕ[X] packaged as a :class:`Semiring` instance."""

    name = "polynomial"
    idempotent_add = False

    @property
    def zero(self) -> ProvenancePolynomial:
        return ProvenancePolynomial.zero()

    @property
    def one(self) -> ProvenancePolynomial:
        return ProvenancePolynomial.one()

    def add(
        self, left: ProvenancePolynomial, right: ProvenancePolynomial
    ) -> ProvenancePolynomial:
        return left.add(right)

    def multiply(
        self, left: ProvenancePolynomial, right: ProvenancePolynomial
    ) -> ProvenancePolynomial:
        return left.multiply(right)

    def token(self, token: Any) -> ProvenancePolynomial:
        return ProvenancePolynomial.token(token)


#: Shared instance.
POLYNOMIAL = PolynomialSemiring()
