"""Definition 2.2 validity checks for candidate rewritings.

A rewriting ``Q'`` of ``Q`` using views ``V`` must satisfy:

1. subgoals are relation names, views, or comparison predicates —
   guaranteed by construction;
2. ``Q'`` is equivalent to ``Q`` — checked on the expansion;
3. no subgoal of ``Q'`` can be removed while preserving equivalence;
4. no subset of base-relation subgoals of ``Q'`` can be replaced by a view
   while preserving equivalence (maximal view coverage).

Note on (4): the paper lists ``Q1 = V1,V2`` as a rewriting in Example 2.3
even though ``V5`` covers the union of their expansions, so the
"replaceable subset" condition applies to *base-relation* subgoals only —
otherwise ``Q1``–``Q3`` would be invalid and the example's preference
discussion moot.
"""

from __future__ import annotations

from repro.cq.containment import are_equivalent
from repro.cq.query import ConjunctiveQuery
from repro.rewriting.expansion import expand_query
from repro.views.registry import ViewRegistry


def is_equivalent_rewriting(
    candidate: ConjunctiveQuery,
    query: ConjunctiveQuery,
    registry: ViewRegistry,
) -> bool:
    """Condition 2: the candidate's expansion is equivalent to the query."""
    return are_equivalent(expand_query(candidate, registry), query)


def has_removable_subgoal(
    candidate: ConjunctiveQuery,
    query: ConjunctiveQuery,
    registry: ViewRegistry,
) -> bool:
    """Condition 3 violation: some subgoal (atom or comparison) is
    removable while preserving equivalence to the original query."""
    for index in range(len(candidate.atoms)):
        reduced = candidate.drop_atom(index)
        try:
            reduced.check_safety()
        except Exception:
            continue
        if are_equivalent(expand_query(reduced, registry), query):
            return True
    for index in range(len(candidate.comparisons)):
        reduced = candidate.drop_comparison(index)
        if are_equivalent(expand_query(reduced, registry), query):
            return True
    return False


def check_definition_2_2(
    candidate: ConjunctiveQuery,
    query: ConjunctiveQuery,
    registry: ViewRegistry,
) -> bool:
    """Conditions 2 and 3 of Definition 2.2 (equivalence, non-redundancy).

    Condition 4 (maximal view coverage) needs the descriptor machinery and
    is enforced by :class:`~repro.rewriting.engine.RewritingEngine` during
    enumeration, where applicable descriptors are already known.
    """
    if not is_equivalent_rewriting(candidate, query, registry):
        return False
    return not has_removable_subgoal(candidate, query, registry)
