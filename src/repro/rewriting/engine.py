"""Enumeration of all rewritings of a query using citation views.

The search:

1. normalize and minimize the input query (equality propagation, core);
2. generate per-view :class:`~repro.rewriting.descriptors.CoverageDescriptor`s;
3. combine descriptors over *disjoint* subsets of the query's subgoals by
   backtracking over atom indices — at each uncovered atom either apply a
   descriptor whose coverage starts there or leave the atom uncovered
   (base relation subgoal of a partial rewriting);
4. validate each candidate against Definition 2.2: expansion equivalence,
   no removable subgoal, and maximality (no descriptor applies to the
   uncovered remainder while preserving equivalence).

Definition 3.3 sums citations over *all* rewritings, so the engine
enumerates exhaustively by default; ``max_rewritings`` bounds the search
for the scaling benchmarks (E8), which measure precisely how fast
exhaustive enumeration grows.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cq.containment import normalize_query
from repro.cq.minimization import minimize
from repro.cq.query import ConjunctiveQuery
from repro.errors import RewritingError
from repro.rewriting.descriptors import CoverageDescriptor, descriptors_for
from repro.rewriting.rewriting import Rewriting, ViewApplication
from repro.rewriting.validity import (
    has_removable_subgoal,
    is_equivalent_rewriting,
)
from repro.util.naming import NameSupply
from repro.views.registry import ViewRegistry


class RewritingEngine:
    """Enumerates Definition 2.2 rewritings of queries over a registry.

    Parameters
    ----------
    registry:
        The citation views available for rewriting.
    include_partial:
        When False, only total rewritings are returned.
    validate:
        When False, skip the (expensive) Def 2.2 equivalence/minimality
        validation — used by the ablation benchmark E10 to measure the
        validation cost; generation is still sound for the common case.
    max_rewritings:
        Optional cap on the number of *validated* rewritings returned.
    """

    def __init__(
        self,
        registry: ViewRegistry,
        include_partial: bool = True,
        validate: bool = True,
        max_rewritings: int | None = None,
    ) -> None:
        self.registry = registry
        self.include_partial = include_partial
        self.validate = validate
        self.max_rewritings = max_rewritings

    # ------------------------------------------------------------------

    def rewrite(self, query: ConjunctiveQuery) -> list[Rewriting]:
        """All valid rewritings of ``query``, deterministically ordered.

        Ordering: total before partial, then fewer residual comparisons,
        fewer views, fewer uncovered atoms (the display order suggested by
        the paper's Section 2.3 discussion — the *semantic* preference
        model is in :mod:`repro.citation.order`).
        """
        if query.is_parameterized:
            raise RewritingError(
                "rewrite expects an unparameterized user query; instantiate "
                "λ-parameters first"
            )
        normalized, satisfiable = normalize_query(query)
        if not satisfiable:
            return []
        normalized = minimize(normalized)
        normalized.check_safety()

        supply = NameSupply(v.name for v in normalized.variables())
        descriptors: list[CoverageDescriptor] = []
        for view in self.registry:
            descriptors.extend(descriptors_for(normalized, view, supply))

        atom_count = len(normalized.atoms)
        by_min_index: dict[int, list[CoverageDescriptor]] = {}
        for descriptor in descriptors:
            by_min_index.setdefault(min(descriptor.covered), []).append(
                descriptor
            )

        results: list[Rewriting] = []
        seen: set[tuple] = set()

        def build(
            chosen: list[CoverageDescriptor], uncovered: list[int]
        ) -> None:
            if uncovered and not self.include_partial:
                return
            candidate = self._assemble(normalized, chosen, uncovered)
            key = (
                tuple(sorted(repr(atom) for atom in candidate.atoms)),
                tuple(sorted(repr(c) for c in candidate.comparisons)),
                tuple(repr(t) for t in candidate.head),
            )
            if key in seen:
                return
            seen.add(key)
            rewriting = self._validate(
                normalized, candidate, chosen, uncovered, descriptors
            )
            if rewriting is not None:
                results.append(rewriting)

        def assign(
            index: int,
            chosen: list[CoverageDescriptor],
            covered: frozenset[int],
            uncovered: list[int],
        ) -> None:
            if (self.max_rewritings is not None
                    and len(results) >= self.max_rewritings):
                return
            if index == atom_count:
                build(chosen, uncovered)
                return
            if index in covered:
                assign(index + 1, chosen, covered, uncovered)
                return
            for descriptor in by_min_index.get(index, ()):
                if descriptor.covered & covered:
                    continue
                assign(
                    index + 1,
                    chosen + [descriptor],
                    covered | descriptor.covered,
                    uncovered,
                )
            # Leave this atom uncovered (partial / identity branch).
            assign(index + 1, chosen, covered, uncovered + [index])

        assign(0, [], frozenset(), [])
        results.sort(key=Rewriting.sort_key)
        if self.max_rewritings is not None:
            results = results[: self.max_rewritings]
        return results

    # ------------------------------------------------------------------

    def _assemble(
        self,
        query: ConjunctiveQuery,
        chosen: Sequence[CoverageDescriptor],
        uncovered: Sequence[int],
    ) -> ConjunctiveQuery:
        atoms = [descriptor.view_atom for descriptor in chosen]
        atoms.extend(query.atoms[i] for i in uncovered)
        return ConjunctiveQuery(
            query.name, query.head, atoms, query.comparisons
        )

    def _validate(
        self,
        query: ConjunctiveQuery,
        candidate: ConjunctiveQuery,
        chosen: Sequence[CoverageDescriptor],
        uncovered: Sequence[int],
        descriptors: Sequence[CoverageDescriptor],
    ) -> Rewriting | None:
        try:
            candidate.check_safety()
        except Exception:
            return None
        if self.validate:
            if not is_equivalent_rewriting(candidate, query, self.registry):
                return None
            if has_removable_subgoal(candidate, query, self.registry):
                return None
            if self._coverage_extendable(
                query, chosen, uncovered, descriptors
            ):
                return None
        applications = tuple(
            ViewApplication(
                descriptor.view, descriptor.view_atom,
                descriptor.parameter_terms,
            )
            for descriptor in chosen
        )
        uncovered_atoms = tuple(query.atoms[i] for i in uncovered)
        return Rewriting(candidate, applications, uncovered_atoms)

    def _coverage_extendable(
        self,
        query: ConjunctiveQuery,
        chosen: Sequence[CoverageDescriptor],
        uncovered: Sequence[int],
        descriptors: Sequence[CoverageDescriptor],
    ) -> bool:
        """Def 2.2 condition 4: can a view replace uncovered base subgoals?

        True when some descriptor fits entirely inside the uncovered
        remainder and adding it still yields an equivalent query — the
        candidate is then not maximally covered and must be rejected.
        """
        if not uncovered:
            return False
        uncovered_set = set(uncovered)
        for descriptor in descriptors:
            if not descriptor.covered.issubset(uncovered_set):
                continue
            extended_uncovered = [
                i for i in uncovered if i not in descriptor.covered
            ]
            extended = self._assemble(
                query, list(chosen) + [descriptor], extended_uncovered
            )
            if is_equivalent_rewriting(extended, query, self.registry):
                return True
        return False


def enumerate_rewritings(
    query: ConjunctiveQuery,
    registry: ViewRegistry,
    include_partial: bool = True,
    validate: bool = True,
    max_rewritings: int | None = None,
) -> list[Rewriting]:
    """Convenience wrapper around :class:`RewritingEngine`."""
    engine = RewritingEngine(
        registry,
        include_partial=include_partial,
        validate=validate,
        max_rewritings=max_rewritings,
    )
    return engine.rewrite(query)
