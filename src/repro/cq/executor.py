"""Plan execution with iterator-style operators.

This is stage three of the **statistics → logical plan → executor**
pipeline: it takes a :class:`~repro.cq.plan.QueryPlan` and streams the
satisfying bindings.  Each :class:`~repro.cq.plan.JoinStep` becomes an
:class:`IndexJoinOperator` pulling bindings from its upstream operator,
probing the step's access path, and emitting extended bindings — the
pipelined (non-blocking) shape of a classic iterator/Volcano executor,
replacing the recursive closure the old interpreter used.

Every access path probes a
:class:`~repro.relational.database.RelationInstance`: a base relation of
the database, or a materialized view in the view store a citation
engine passes as ``virtual``.  Hash paths probe hash indexes on the
bound positions, ordered access paths (range comparisons pushed by the
planner's interval closure) bisect sorted secondary indexes, and
composite access paths (equality + range pushed onto one step) bisect
inside hash buckets kept sorted — degrading to a hash probe or scan
plus residual re-checks on mixed-type columns/buckets.  Indexes hold
value tuples, so a probe hands its bucket over without a copy.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from typing import Any

from repro.cq.atoms import ComparisonAtom
from repro.cq.plan import JoinStep, QueryPlan, relation_for
from repro.cq.terms import Constant, Variable
from repro.errors import MixedTypeComparisonWarning
from repro.relational.database import Database

#: A binding maps every body variable to a concrete value.
Binding = dict[Variable, Any]


def _comparison_checker(
    query_name: str, warned: set[ComparisonAtom]
) -> Callable[[ComparisonAtom, Binding], bool]:
    """A comparison evaluator that warns (once per query execution) on
    mixed-type comparisons instead of silently returning False."""

    def check(comparison: ComparisonAtom, binding: Binding) -> bool:
        left = comparison.left
        right = comparison.right
        left_value = left.value if isinstance(left, Constant) else binding[left]
        right_value = (
            right.value if isinstance(right, Constant) else binding[right]
        )
        try:
            return comparison.op.function(left_value, right_value)
        except TypeError:
            if comparison not in warned:
                warned.add(comparison)
                warnings.warn(
                    MixedTypeComparisonWarning(
                        query_name,
                        repr(comparison),
                        type(left_value).__name__,
                        type(right_value).__name__,
                    ),
                    stacklevel=2,
                )
            return False

    return check


class SingletonBindingOperator:
    """The plan's source: one empty binding."""

    def __iter__(self) -> Iterator[Binding]:
        yield {}


class SequenceSourceOperator:
    """A source replaying a fixed sequence of bindings.

    The sub-plan memo (:mod:`repro.cq.subplan`) seeds a plan suffix
    with a materialized prefix's bindings through one of these.
    """

    def __init__(self, bindings: Sequence[Binding]) -> None:
        self.bindings = bindings

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.bindings)


class IndexJoinOperator:
    """One join step as a pulling iterator.

    For every upstream binding, probes the step's access path (hash index
    on the bound positions), applies the residual repeated-variable
    checks, extends the binding with the newly introduced variables, and
    filters through the comparisons scheduled at this step.
    """

    def __init__(
        self,
        source: Any,
        step: JoinStep,
        rows_for: Callable[[tuple[Any, ...]], Sequence[tuple[Any, ...]]],
        check: Callable[[ComparisonAtom, Binding], bool],
    ) -> None:
        self.source = source
        self.step = step
        self.rows_for = rows_for
        self.check = check

    def __iter__(self) -> Iterator[Binding]:
        step = self.step
        rows_for = self.rows_for
        check = self.check
        lookup_terms = step.lookup_terms
        introduces = step.introduces
        equal_positions = step.equal_positions
        comparisons = step.comparisons
        for binding in self.source:
            probe = tuple(
                term.value if isinstance(term, Constant) else binding[term]
                for term in lookup_terms
            )
            if any(value != value for value in probe):
                # A NaN probe value ==-matches no row, but a hash bucket
                # would match it by *identity* (same NaN object as key) —
                # and a repeat of an already-bound variable has no
                # residual re-check to reject the row.  Skip the probe:
                # the reference evaluator's == join finds nothing here.
                continue
            for row in rows_for(probe):
                if any(row[i] != row[j] for i, j in equal_positions):
                    continue
                extension = dict(binding)
                for var, position in introduces:
                    extension[var] = row[position]
                if all(check(c, extension) for c in comparisons):
                    yield extension


def _row_source(
    step: JoinStep,
    db: Database,
    virtual: Database | None,
) -> Callable[[tuple[Any, ...]], Sequence[tuple[Any, ...]]]:
    """Bind a step's access path to its relation instance.

    Ordered access paths (``range_position``) bisect the sorted
    secondary index, and composite access paths (``range_position``
    alongside ``lookup_positions``) bisect inside the matching hash
    bucket of a composite index; when an index cannot serve the probe
    (mixed-type column or bucket, incomparable bounds) they degrade to
    the hash probe or scan the planner would otherwise have emitted —
    the step's residual comparisons re-check every range predicate, so
    the fallback only costs time, never correctness, and genuinely mixed
    comparisons surface the usual :class:`MixedTypeComparisonWarning`
    from the residual filter.
    """
    instance = relation_for(step.atom, db, virtual)[0]
    positions = step.lookup_positions
    range_position = step.range_position
    range_interval = step.range_interval
    lookup = partial(instance.lookup, positions)
    if range_position is None:
        return lookup

    def ordered_rows(values: tuple[Any, ...]) -> Sequence[tuple[Any, ...]]:
        if positions:
            rows = instance.composite_lookup(
                positions, values, range_position, range_interval
            )
        else:
            rows = instance.range_lookup(range_position, range_interval)
        if rows is None:
            return lookup(values)
        return rows

    return ordered_rows


def build_operator_chain(
    source: Any,
    steps: Sequence[JoinStep],
    db: Database,
    virtual: Database | None,
    check: Callable[[ComparisonAtom, Binding], bool],
) -> Any:
    """Stack one :class:`IndexJoinOperator` per step on top of ``source``.

    Shared by :func:`execute_plan` (whole plan over the singleton source),
    :func:`execute_plan_seeded` and the sub-plan memo (a plan suffix over
    materialized prefix bindings).
    """
    operator = source
    for step in steps:
        operator = IndexJoinOperator(
            operator, step, _row_source(step, db, virtual), check
        )
    return operator


def execute_plan(
    plan: QueryPlan,
    db: Database,
    virtual: Database | None = None,
) -> Iterator[Binding]:
    """Stream every satisfying binding of a planned query.

    The operator chain is built once per call; bindings are produced
    lazily.  ``virtual`` should be the view store the plan was built
    against (the facades in :mod:`repro.cq.evaluation` guarantee this).
    """
    if plan.empty:
        return
    warned: set[ComparisonAtom] = set()
    check = _comparison_checker(plan.query.name, warned)
    yield from build_operator_chain(
        SingletonBindingOperator(), plan.steps, db, virtual, check
    )


def execute_plan_seeded(
    plan: QueryPlan,
    db: Database,
    virtual: Database | None,
    seeds: Sequence[Binding],
    from_step: int,
) -> Iterator[Binding]:
    """Prefix-seeded execution: run only ``plan.steps[from_step:]``.

    ``seeds`` must be the binding sequence the first ``from_step`` steps
    would produce — the cross-query sub-plan memo
    (:mod:`repro.cq.subplan`) supplies memoized prefix bindings here, so
    only the suffix steps (with their residual checks) run.  Because the
    seeds are exact materializations, the output is the plain
    :func:`execute_plan` sequence — same multiset, same order.
    """
    if plan.empty:
        return
    check = _comparison_checker(plan.query.name, set())
    yield from build_operator_chain(
        SequenceSourceOperator(seeds), plan.steps[from_step:], db, virtual,
        check
    )
