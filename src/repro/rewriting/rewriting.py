"""The :class:`Rewriting` result object.

A rewriting bundles the rewritten query (over view and base atoms), the
view applications with their λ-parameter bindings, the uncovered base
atoms, and the metrics the paper's preference model ranks by (Section 2.3):
total vs partial, number of views, residual (non-absorbed) comparisons.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Term

if TYPE_CHECKING:
    from repro.views.citation_view import CitationView

#: A replacement of constants, keyed by text: a constant that prints as
#: a key becomes the key's value.  By text, so ``0.0`` and ``-0.0``
#: (equal constants that print apart) are replaced apart.
ConstantSwap = Mapping[str, Constant]


def _swap_term(term: Term, swap: ConstantSwap) -> Term:
    if isinstance(term, Constant):
        return swap.get(repr(term), term)
    return term


def _swap_terms(
    terms: tuple[Term, ...], swap: ConstantSwap
) -> tuple[Term, ...]:
    """``terms`` with swapped constants (``terms`` itself if none is)."""
    swapped = None
    for position, term in enumerate(terms):
        if isinstance(term, Constant):
            replacement = swap.get(repr(term))
            if replacement is not None:
                if swapped is None:
                    swapped = list(terms)
                swapped[position] = replacement
    return terms if swapped is None else tuple(swapped)


def _swap_atom(atom: RelationalAtom, swap: ConstantSwap) -> RelationalAtom:
    terms = _swap_terms(atom.terms, swap)
    if terms is atom.terms:
        return atom
    return RelationalAtom(atom.relation, terms)


def swap_constants(
    query: ConjunctiveQuery, swap: ConstantSwap
) -> ConjunctiveQuery:
    """``query`` with every constant in ``swap`` replaced.

    Only the atoms that hold a swapped constant are rebuilt; the others
    are shared with ``query``.
    """
    comparisons = []
    for comparison in query.comparisons:
        left = _swap_term(comparison.left, swap)
        right = _swap_term(comparison.right, swap)
        if left is not comparison.left or right is not comparison.right:
            comparison = ComparisonAtom(left, comparison.op, right)
        comparisons.append(comparison)
    return ConjunctiveQuery(
        query.name,
        _swap_terms(query.head, swap),
        [_swap_atom(atom, swap) for atom in query.atoms],
        comparisons,
        query.parameters,
    )


@dataclass(frozen=True)
class ViewApplication:
    """One view atom inside a rewriting.

    ``parameter_terms`` aligns with the view's λ-parameters: a
    :class:`~repro.cq.terms.Constant` means the parameter was absorbed
    from a query comparison (the paper's ``V4(F,N,Ty)("gpcr")``); a
    variable means the parameter stays free and takes a value per binding
    at citation time (the paper's ``V1`` in rewriting ``Q1``).
    """

    view: "CitationView"
    atom: RelationalAtom
    parameter_terms: tuple[Term, ...]

    @property
    def is_fully_instantiated(self) -> bool:
        """All λ-parameters bound to constants (Example 3.4's premise)."""
        return all(isinstance(t, Constant) for t in self.parameter_terms)

    @property
    def absorbed_parameter_count(self) -> int:
        return sum(1 for t in self.parameter_terms if isinstance(t, Constant))

    def __repr__(self) -> str:
        if self.parameter_terms:
            params = ", ".join(repr(t) for t in self.parameter_terms)
            return f"{self.atom!r}({params})"
        return repr(self.atom)


@dataclass(frozen=True)
class Rewriting:
    """A validated rewriting of a query using citation views (Def 2.2)."""

    #: The rewritten query: atoms over views and (for partial rewritings)
    #: base relations, plus residual comparisons.
    query: ConjunctiveQuery
    #: View applications, in body order.
    applications: tuple[ViewApplication, ...]
    #: Base atoms left uncovered (empty for total rewritings).
    uncovered_atoms: tuple[RelationalAtom, ...]

    # -- classification (Section 2.2 / 2.3) ------------------------------------

    @property
    def is_total(self) -> bool:
        """Total: subgoals contain only views and comparison predicates."""
        return not self.uncovered_atoms

    @property
    def is_partial(self) -> bool:
        return bool(self.uncovered_atoms)

    @property
    def view_count(self) -> int:
        """Number of view atoms (the paper prefers fewer — Example 2.3)."""
        return len(self.applications)

    @property
    def uncovered_count(self) -> int:
        """Number of base-relation subgoals (Example 3.7's C_R count)."""
        return len(self.uncovered_atoms)

    @property
    def absorbed_parameter_count(self) -> int:
        """λ-parameters bound to constants across all applications."""
        return sum(a.absorbed_parameter_count for a in self.applications)

    @property
    def residual_comparison_count(self) -> int:
        """Selections *not* absorbed into λ-parameters.

        Counts the remaining comparison atoms plus constants sitting in
        non-λ positions of view atoms (a constant inlined into a view
        column is a selection over the view's output, exactly the
        "remaining comparison predicate" of Example 2.2's ``Q1``).
        """
        count = len(self.query.comparisons)
        for application in self.applications:
            lambda_positions = set(application.view.parameter_positions())
            for position, term in enumerate(application.atom.terms):
                if position in lambda_positions:
                    continue
                if isinstance(term, Constant):
                    count += 1
        return count

    @property
    def is_fully_instantiated(self) -> bool:
        """Every λ-parameter of every used view bound to a constant.

        Example 3.4: under idempotent ``+``/``Agg`` such a rewriting yields
        one citation for the whole result set.
        """
        return all(a.is_fully_instantiated for a in self.applications)

    def with_constants(self, swap: ConstantSwap) -> "Rewriting":
        """This rewriting with every constant in ``swap`` replaced.

        Example 2.2's absorption makes a query's rewritings depend on
        its constants only through how they compare, so the rewritings
        of ``Ty = "vgic"`` are those of ``Ty = "gpcr"`` with the
        constant swapped
        (:class:`~repro.citation.cache.CachedRewritingEngine`).
        The applications and uncovered atoms share the new query's atoms.
        """
        query = swap_constants(self.query, swap)
        swapped = {
            id(old): new for old, new in zip(self.query.atoms, query.atoms)
        }

        def atom(old: RelationalAtom) -> RelationalAtom:
            new = swapped.get(id(old))
            return _swap_atom(old, swap) if new is None else new

        return Rewriting(
            query,
            tuple(
                ViewApplication(
                    application.view,
                    atom(application.atom),
                    _swap_terms(application.parameter_terms, swap),
                )
                for application in self.applications
            ),
            tuple(atom(old) for old in self.uncovered_atoms),
        )

    def sort_key(self) -> tuple:
        """Deterministic preference-flavoured ordering for display.

        Total first, then fewer residual comparisons, fewer views, fewer
        uncovered atoms, finally repr for stability.  (The *semantic*
        preference model lives in :mod:`repro.citation.order`.)
        """
        return (
            self.is_partial,
            self.residual_comparison_count,
            self.view_count,
            self.uncovered_count,
            repr(self.query),
        )

    def __repr__(self) -> str:
        kind = "total" if self.is_total else "partial"
        return f"Rewriting<{kind}>({self.query!r})"
