"""Plan execution with iterator-style operators.

This is stage three of the **statistics → logical plan → executor**
pipeline: it takes a :class:`~repro.cq.plan.QueryPlan` and streams the
satisfying bindings.  Each :class:`~repro.cq.plan.JoinStep` becomes an
:class:`IndexJoinOperator` pulling bindings from its upstream operator,
probing the step's access path, and emitting extended bindings — the
pipelined (non-blocking) shape of a classic iterator/Volcano executor,
replacing the recursive closure the old interpreter used.

Virtual relations (materialized view instances used while evaluating
rewritings) are served through :class:`IndexedVirtualRelations`, which
validates arity once and builds hash indexes per bound-position set —
the old evaluator re-scanned the whole extension and re-checked arity on
every probe.  Ordered access paths (range comparisons pushed by the
planner's interval closure) probe sorted secondary indexes via bisect,
and composite access paths (equality + range pushed onto one step)
probe hash indexes whose buckets are kept sorted for in-bucket bisect —
on base relations and virtual relations alike, degrading to a hash
probe or scan plus residual re-checks on mixed-type columns/buckets.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from repro.cq.atoms import ComparisonAtom
from repro.cq.plan import JoinStep, QueryPlan, _content_token
from repro.cq.terms import Constant, Variable
from repro.errors import MixedTypeComparisonWarning, QueryError
from repro.relational.database import (
    CompositeIndex,
    Database,
    SortedIndex,
    build_composite_index,
    build_sorted_index,
    composite_index_slice,
    sorted_index_slice,
)
from repro.relational.statistics import (
    Interval,
    RelationStatistics,
    statistics_of,
)

#: A binding maps every body variable to a concrete value.
Binding = dict[Variable, Any]

#: Rows of one virtual relation, and the mapping the caller supplies.
VirtualRows = Sequence[tuple[Any, ...]]
VirtualRelations = Mapping[str, VirtualRows]


class IndexedVirtualRelations(Mapping):
    """Virtual relations with per-position hash indexes and statistics.

    Wraps a plain ``{name: rows}`` mapping.  Arity is validated once per
    relation (not once per row per probe), statistics are computed once
    for the planner, and hash indexes over bound positions are built
    lazily and reused across probes *and* across queries — the
    :class:`~repro.citation.generator.CitationEngine` keeps one instance
    per materialization, so every rewriting of every query in a workload
    shares the same indexes.
    """

    def __init__(self, relations: VirtualRelations) -> None:
        self._relations: dict[str, VirtualRows] = dict(relations)
        self._validated_arity: dict[str, int] = {}
        self._stats: dict[str, RelationStatistics] = {}
        self._indexes: dict[
            tuple[str, tuple[int, ...]],
            dict[tuple[Any, ...], list[tuple[Any, ...]]],
        ] = {}
        # Sorted secondary indexes for range probes; a cached ``None``
        # records a mixed-type (unsortable) column.
        self._sorted: dict[tuple[str, int], SortedIndex | None] = {}
        # Composite indexes for combined equality+range probes, keyed by
        # (name, hash positions, ordered position); buckets degrade
        # individually on mixed-type order keys.
        self._composite: dict[
            tuple[str, tuple[int, ...], int], CompositeIndex
        ] = {}
        # Content fingerprints served to the plan cache (see
        # QueryPlanner._tags); each is computed at most once per content
        # (:meth:`replace` drops it with the rest of the relation's state).
        self._tokens: dict[str, tuple] = {}

    @classmethod
    def wrap(
        cls, virtual: VirtualRelations | None
    ) -> "IndexedVirtualRelations | None":
        """Adopt a caller-supplied mapping (idempotent, None-preserving)."""
        if virtual is None or isinstance(virtual, cls):
            return virtual
        return cls(virtual)

    # -- Mapping protocol (legacy callers see a plain mapping) ---------------

    def __getitem__(self, name: str) -> VirtualRows:
        return self._relations[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def replace(self, name: str, rows: VirtualRows) -> None:
        """Swap in new rows for one relation.

        Only that relation's arity check, statistics, indexes and
        content fingerprint are dropped; they rebuild lazily, and every
        other relation's stay warm.  The citation engine calls this
        when a row change alters one view's extension.
        """
        self._relations[name] = rows
        self._validated_arity.pop(name, None)
        self._stats.pop(name, None)
        self._tokens.pop(name, None)
        self._indexes = {
            key: index for key, index in self._indexes.items()
            if key[0] != name
        }
        self._sorted = {
            key: index for key, index in self._sorted.items()
            if key[0] != name
        }
        self._composite = {
            key: index for key, index in self._composite.items()
            if key[0] != name
        }

    # -- planner/executor services -------------------------------------------

    def validate_arity(self, name: str, arity: int) -> None:
        """Check every row once; subsequent calls are O(1)."""
        known = self._validated_arity.get(name)
        if known == arity:
            return
        for values in self._relations[name]:
            if len(values) != arity:
                raise QueryError(
                    f"virtual relation {name!r} arity mismatch"
                )
        self._validated_arity[name] = arity

    def statistics_for(self, name: str, arity: int) -> RelationStatistics:
        """Statistics for the planner's cost model (computed once)."""
        self.validate_arity(name, arity)
        stats = self._stats.get(name)
        if stats is None:
            stats = statistics_of(self._relations[name], arity)
            self._stats[name] = stats
        return stats

    def ensure_index(self, name: str, positions: tuple[int, ...]) -> None:
        """Build (and cache) the hash index on ``positions`` of ``name``."""
        key = (name, positions)
        if not positions or key in self._indexes:
            return
        index: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
        for row in self._relations[name]:
            index.setdefault(tuple(row[i] for i in positions), []).append(row)
        self._indexes[key] = index

    def lookup(
        self,
        name: str,
        positions: tuple[int, ...],
        values: tuple[Any, ...],
    ) -> Sequence[tuple[Any, ...]]:
        """Rows of ``name`` whose projection on ``positions`` is ``values``."""
        if not positions:
            return self._relations[name]
        self.ensure_index(name, positions)
        return self._indexes[name, positions].get(values, ())

    def ensure_sorted_index(
        self, name: str, position: int
    ) -> SortedIndex | None:
        """Build (and cache) the sorted index on one column.

        Returns the index, or ``None`` (also cached) when the column
        mixes incomparable types.
        """
        key = (name, position)
        if key not in self._sorted:
            self._sorted[key] = build_sorted_index(
                self._relations[name], lambda row: row[position]
            )
        return self._sorted[key]

    def range_lookup(
        self, name: str, position: int, interval: Interval
    ) -> Sequence[tuple[Any, ...]] | None:
        """Rows of ``name`` with ``position`` inside ``interval``.

        ``None`` means the ordered path cannot serve the probe
        (mixed-type column or incomparable bounds); the executor then
        falls back to a scan and lets the residual re-checks filter.
        """
        index = self.ensure_sorted_index(name, position)
        if index is None:
            return None
        return sorted_index_slice(index, interval)

    def ensure_composite_index(
        self, name: str, positions: tuple[int, ...], order_position: int
    ) -> CompositeIndex:
        """Build (and cache) one composite index."""
        key = (name, positions, order_position)
        index = self._composite.get(key)
        if index is None:
            index = build_composite_index(
                self._relations[name],
                lambda row: tuple(row[i] for i in positions),
                lambda row: row[order_position],
            )
            self._composite[key] = index
        return index

    def composite_lookup(
        self,
        name: str,
        positions: tuple[int, ...],
        values: tuple[Any, ...],
        order_position: int,
        interval: Interval,
    ) -> Sequence[tuple[Any, ...]] | None:
        """Rows of ``name`` matching the hash probe with ``order_position``
        inside ``interval`` — one hash lookup plus one bisect.

        ``None`` means the composite path cannot serve the probe
        (mixed-type bucket or incomparable bounds); the executor then
        falls back to the plain hash index plus residual re-checks.
        """
        index = self.ensure_composite_index(name, positions, order_position)
        return composite_index_slice(index, values, interval)

    def content_token(self, name: str) -> tuple:
        """Cached content fingerprint of one relation for the plan cache."""
        token = self._tokens.get(name)
        if token is None:
            token = _content_token(self._relations[name])
            self._tokens[name] = token
        return token


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
    virtual: IndexedVirtualRelations | None,
) -> Callable[[tuple[Any, ...]], Sequence[tuple[Any, ...]]]:
    """Bind a step's access path to concrete storage.

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
    positions = step.lookup_positions
    range_position = step.range_position
    range_interval = step.range_interval
    # Two storage adapters (virtual rows are plain tuples, base rows are
    # Row objects unwrapped to their values), one shared probe shape:
    # ``hash_rows`` is the plain hash probe / scan, ``narrowed_rows`` is
    # the ordered or composite narrowing returning ``None`` when the
    # index cannot serve the probe.
    if step.virtual:
        assert virtual is not None
        name = step.atom.relation
        virtual.validate_arity(name, step.atom.arity)

        def hash_rows(values: tuple[Any, ...]) -> Sequence[tuple[Any, ...]]:
            return virtual.lookup(name, positions, values)

        def narrowed_rows(
            values: tuple[Any, ...]
        ) -> Sequence[tuple[Any, ...]] | None:
            if positions:
                return virtual.composite_lookup(
                    name, positions, values, range_position, range_interval
                )
            return virtual.range_lookup(name, range_position, range_interval)

    else:
        instance = db.relation(step.atom.relation)

        def hash_rows(values: tuple[Any, ...]) -> list[tuple[Any, ...]]:
            return [row.values for row in instance.lookup(positions, values)]

        def narrowed_rows(
            values: tuple[Any, ...]
        ) -> list[tuple[Any, ...]] | None:
            if positions:
                rows = instance.composite_lookup(
                    positions, values, range_position, range_interval
                )
            else:
                rows = instance.range_lookup(range_position, range_interval)
            if rows is None:
                return None
            return [row.values for row in rows]

    if range_position is None:
        return hash_rows

    def ordered_rows(values: tuple[Any, ...]) -> Sequence[tuple[Any, ...]]:
        rows = narrowed_rows(values)
        if rows is None:
            return hash_rows(values)
        return rows

    return ordered_rows


def build_operator_chain(
    source: Any,
    steps: Sequence[JoinStep],
    db: Database,
    virtual: IndexedVirtualRelations | None,
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
    virtual: VirtualRelations | None = None,
) -> Iterator[Binding]:
    """Stream every satisfying binding of a planned query.

    The operator chain is built once per call; bindings are produced
    lazily.  ``virtual`` should be the same relations the plan was built
    against (the facades in :mod:`repro.cq.evaluation` guarantee this).
    """
    if plan.empty:
        return
    indexed = IndexedVirtualRelations.wrap(virtual)
    warned: set[ComparisonAtom] = set()
    check = _comparison_checker(plan.query.name, warned)
    yield from build_operator_chain(
        SingletonBindingOperator(), plan.steps, db, indexed, check
    )


def execute_plan_seeded(
    plan: QueryPlan,
    db: Database,
    virtual: VirtualRelations | None,
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
    indexed = IndexedVirtualRelations.wrap(virtual)
    check = _comparison_checker(plan.query.name, set())
    yield from build_operator_chain(
        SequenceSourceOperator(seeds), plan.steps[from_step:], db, indexed,
        check
    )
