"""Cost-based logical plans for conjunctive-query evaluation.

The evaluation pipeline is **statistics → logical plan → executor**:

1. :mod:`repro.relational.statistics` maintains per-relation cardinality
   and per-column distinct/frequency counts incrementally on every
   insert/delete;
2. this module turns a query into a :class:`QueryPlan` — an ordered
   sequence of :class:`JoinStep` s with a cost-based join order and a
   static access path (which positions each index probe binds) — using
   those statistics;
3. :mod:`repro.cq.executor` runs the plan with iterator-style operators.

Join ordering is greedy minimum-intermediate-cardinality: at each step
the planner picks the atom whose index probe is estimated to return the
fewest rows given the variables already bound, which is exactly the
stats-aware version of the old boundness heuristic.  Because the join
order is fixed at plan time, every per-row decision the old interpreter
made (which positions are bound, which comparisons are ready, where
repeated variables force equality) is precomputed into the step.

Comparison pushdown happens before ordering: pushable ``=`` atoms fold
into an *equality closure* (:class:`_EqualityClosure`) whose constants
become hash-index probes, and pushable range atoms
(``<``/``<=``/``>``/``>=``) fold into an *interval closure*
(:class:`_IntervalClosure`) whose merged ``[lo, hi]`` intervals become
ordered narrowings: where a step would otherwise scan they select an
*ordered* access path (bisect over a sorted secondary index), and where
the step already hash-probes they select a *composite* access path —
a single probe against a hash index whose buckets are kept sorted on
the ordered position, so ``Ty = "gpcr", N >= t`` is one
hash-lookup-plus-bisect instead of a probe and a post-filter.
Provably-empty intervals (and contradictory equality constants)
short-circuit to an empty plan without touching data.

Plans for α-equivalent queries are shared: :class:`QueryPlanner` caches
the plan of the *canonical* query (see :mod:`repro.cq.canonical`) and
rebinds it to each caller's variables, keyed by the canonical key with
constants by value (the cost model reads each constant's frequency).

Rewritings read views as well as base relations.  A citation engine
keeps its materialized views in a store of their own
(:func:`~repro.relational.database.view_store`), which every function
here takes as ``virtual``; :func:`relation_for` resolves a relation name
to its instance in that store or in the database.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.canonical import canonical_key_and_renaming, canonical_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Term, Variable
from repro.errors import QueryError
from repro.relational.database import Database, RelationInstance
from repro.relational.expressions import ComparisonOp
from repro.relational.statistics import Interval, RelationStatistics
from repro.util.lru import VersionedLRU

#: Plan-verification modes (see :mod:`repro.analysis.verifier`).
VERIFY_MODES = ("off", "always")

#: Process-wide sanitizer switch, seeded from the environment so test
#: runs (and CI) can verify every plan the whole process produces.
_verify_mode = os.environ.get("REPRO_VERIFY_PLANS", "off")


def set_plan_verification(mode: str) -> str:
    """Set the process-wide plan-verification mode; returns the old one.

    ``"always"`` runs :func:`repro.analysis.verifier.verify_plan` on
    every plan built by :func:`plan_query` or returned by
    :class:`QueryPlanner` (including cache hits, whose rebinding is
    itself a verified transformation); ``"off"`` restores the default.
    """
    global _verify_mode
    if mode not in VERIFY_MODES:
        raise ValueError(
            f"plan verification mode must be one of {VERIFY_MODES}, "
            f"got {mode!r}"
        )
    previous = _verify_mode
    _verify_mode = mode
    return previous


def plan_verification() -> str:
    """The current process-wide plan-verification mode."""
    return _verify_mode


def _maybe_verify(plan: QueryPlan) -> QueryPlan:
    """Run the verifier on ``plan`` when the process-wide mode says so.

    The import is deferred: :mod:`repro.analysis` depends on this
    module, and in the default ``off`` mode the verifier never loads.
    """
    if _verify_mode == "always":
        from repro.analysis.verifier import verify_plan

        verify_plan(plan)
    return plan


def _group_pushed(
    pushed: Sequence[ComparisonAtom],
    find: Callable[[Variable], Variable],
) -> dict[Variable, list[ComparisonAtom]]:
    """Absorbed comparisons grouped by class representative.

    Used to attribute each pushed comparison to the join steps whose
    access path actually serves it (``JoinStep.pushed``), so EXPLAIN
    renders one access path per step.  Call only after every
    absorption: unions are finished, so roots are stable.
    """
    grouped: dict[Variable, list[ComparisonAtom]] = {}
    for comparison in pushed:
        var = (
            comparison.left
            if isinstance(comparison.left, Variable)
            else comparison.right
        )
        grouped.setdefault(find(var), []).append(comparison)
    return grouped


class _EqualityClosure:
    """Union-find over the variables connected by pushable ``=`` atoms.

    Equality comparisons between a variable and a constant
    (``Ty = "gpcr"``) and between two variables (``X = Y``) — including
    everything they *transitively* imply — constrain values before any
    data is read, so the planner folds them into access paths instead of
    scheduling them as post-filters.  Each equivalence class either
    carries a constant (every member is forced to that value and probes
    use the constant directly) or not (later members probe with the value
    of the first member bound by an earlier step).

    :attr:`contradiction` is set when one class accumulates two constants
    with unequal values; no binding can satisfy the query then, and the
    plan short-circuits to an empty result.
    """

    __slots__ = ("_parent", "_constants", "contradiction", "pushed")

    def __init__(self) -> None:
        self._parent: dict[Variable, Variable] = {}
        self._constants: dict[Variable, Constant] = {}
        self.contradiction = False
        self.pushed: list[ComparisonAtom] = []

    def find(self, var: Variable) -> Variable:
        """Class representative of ``var`` (itself when unconstrained)."""
        parent = self._parent
        if var not in parent:
            return var
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:
            parent[var], var = root, parent[var]
        return root

    def constant_for(self, var: Variable) -> Constant | None:
        """The constant ``var`` is forced to, if its class carries one."""
        return self._constants.get(self.find(var))

    def _bind_constant(self, root: Variable, constant: Constant) -> None:
        existing = self._constants.get(root)
        if existing is None:
            self._constants[root] = constant
        elif not existing.value == constant.value:
            # Value equality, not Constant equality: X = 1, X = 1.0 is
            # satisfiable (probing with either finds the same rows), but
            # X = 1, X = 2 never is.
            self.contradiction = True

    def _union(self, left: Variable, right: Variable) -> None:
        self._parent.setdefault(left, left)
        self._parent.setdefault(right, right)
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        self._parent[right_root] = left_root
        constant = self._constants.pop(right_root, None)
        if constant is not None:
            self._bind_constant(left_root, constant)

    def absorb(self, comparison: ComparisonAtom) -> bool:
        """Fold a comparison into the closure; False → keep it residual.

        Hash-index probes match by identity-or-equality while a residual
        filter uses ``==`` only — the two differ exactly on non-reflexive
        values (NaN).  So: ``X = X`` and ``X = <non-reflexive constant>``
        are never absorbed, and variable-variable equalities are absorbed
        for probing *and* still re-checked residually (the caller keeps
        them in the comparison schedule), which makes the probe a pure
        narrowing optimization.
        """
        if comparison.op is not ComparisonOp.EQ or comparison.is_ground:
            return False
        left, right = comparison.left, comparison.right
        if left == right:
            return False
        if isinstance(left, Variable) and isinstance(right, Variable):
            self._union(left, right)
        else:
            var, const = (
                (left, right) if isinstance(left, Variable) else (right, left)
            )
            assert isinstance(var, Variable) and isinstance(const, Constant)
            if const.value != const.value:
                # A probe with a NaN constant could match rows by object
                # identity; the == filter never does.  Keep it residual
                # (it is always false, like the reference evaluator).
                return False
            self._parent.setdefault(var, var)
            self._bind_constant(self.find(var), const)
        self.pushed.append(comparison)
        return True

    def needs_recheck(self, comparison: ComparisonAtom) -> bool:
        """True for absorbed equalities that must also run as filters.

        Variable-variable equalities probe with a runtime value, which
        may be non-reflexive (NaN); only the residual ``==`` re-check
        preserves reference semantics for those rows.  (Probes are
        supersets of ``==`` matches — equal objects hash equal — so
        probe + re-check is exact.)
        """
        return isinstance(comparison.left, Variable) and isinstance(
            comparison.right, Variable
        )

    def pushed_by_class(self) -> dict[Variable, list[ComparisonAtom]]:
        """Absorbed comparisons by class root (see :func:`_group_pushed`)."""
        return _group_pushed(self.pushed, self.find)


#: Range operators foldable into the interval closure.
_RANGE_OPS = frozenset(
    {ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE}
)


class _IntervalClosure:
    """Merged ``[lo, hi]`` intervals per equality class, from range atoms.

    Inequality comparisons between a variable and a constant (``X < 5``,
    ``X >= 2``) — with constants shared across an equality class, so
    ``X = Y, Y < 5`` constrains ``X`` too — are folded into one
    :class:`~repro.relational.statistics.Interval` per class.  Interval-
    constrained positions become *ordered access paths* (bisect over a
    sorted secondary index) instead of scans, and a provably empty
    interval short-circuits the whole plan.

    Absorbed comparisons are **always** re-checked residually (the
    caller keeps them in the comparison schedule): the bisect probe is a
    pure narrowing, so planned results stay multiset-identical to the
    reference evaluator even on columns mixing incomparable types, where
    the ordered path degrades to a scan and the residual check emits the
    usual :class:`~repro.errors.MixedTypeComparisonWarning`.

    Bounds that cannot be compared with a class's existing bounds
    (``X > 1, X < "a"``) are *not* absorbed — they stay residual-only —
    which keeps every interval internally comparable and bisect-safe.
    NaN bounds are never absorbed (every comparison with NaN is false;
    the residual check preserves exactly that).
    """

    __slots__ = ("_closure", "_intervals", "pushed", "empty")

    def __init__(self, closure: _EqualityClosure) -> None:
        self._closure = closure
        self._intervals: dict[Variable, Interval] = {}
        self.pushed: list[ComparisonAtom] = []
        self.empty = False

    def absorb(self, comparison: ComparisonAtom) -> bool:
        """Fold a range comparison into the closure; False → residual only."""
        if comparison.op not in _RANGE_OPS or comparison.is_ground:
            return False
        left, op, right = comparison.left, comparison.op, comparison.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            left, op, right = right, op.flip(), left
        if not (isinstance(left, Variable) and isinstance(right, Constant)):
            return False  # variable-variable ranges stay residual
        value = right.value
        if value is None or value != value:
            # None cannot anchor an interval bound (it is the unbounded
            # sentinel) and NaN satisfies no comparison; keep residual.
            return False
        root = self._closure.find(left)
        current = self._intervals.get(root, Interval())
        merged = self._merge(current, op, value)
        if merged is None:
            return False
        self._intervals[root] = merged
        if merged.is_empty() is True:
            self.empty = True
        self.pushed.append(comparison)
        return True

    @staticmethod
    def _merge(interval: Interval, op: ComparisonOp, value: Any) -> Interval | None:
        """Tighten ``interval`` with ``var op value``; None → incomparable."""
        lo, lo_open = interval.lo, interval.lo_open
        hi, hi_open = interval.hi, interval.hi_open
        try:
            if op in (ComparisonOp.GT, ComparisonOp.GE):
                open_ = op is ComparisonOp.GT
                if lo is None or value > lo:
                    lo, lo_open = value, open_
                elif value == lo:
                    lo_open = lo_open or open_
            else:
                open_ = op is ComparisonOp.LT
                if hi is None or value < hi:
                    hi, hi_open = value, open_
                elif value == hi:
                    hi_open = hi_open or open_
        except TypeError:
            return None
        merged = Interval(lo, lo_open, hi, hi_open)
        if merged.is_empty() is None:
            # The two endpoints are mutually incomparable (X > 1,
            # X < "a"): such an interval could raise from bisect.
            return None
        return merged

    def interval_for(self, var: Variable) -> Interval | None:
        """The probe interval for ``var``, if its class carries one.

        Classes forced to a constant by the equality closure return
        ``None``: the constant probe is strictly stronger, and the
        constant/interval consistency was already settled by
        :meth:`finalize`.
        """
        root = self._closure.find(var)
        interval = self._intervals.get(root)
        if interval is None or self._closure.constant_for(var) is not None:
            return None
        return interval

    def pushed_by_class(self) -> dict[Variable, list[ComparisonAtom]]:
        """Absorbed ranges by class root (see :func:`_group_pushed`)."""
        return _group_pushed(self.pushed, self._closure.find)

    def finalize(self) -> None:
        """Cross-check intervals against equality-closure constants.

        A class whose equality constant provably falls outside its
        interval (``X = 3, X < 2``) makes the query unsatisfiable; an
        incomparable constant (``X = "a", X < 5``) is left to the
        residual check, which warns and rejects at run time exactly like
        the reference evaluator's always-false comparison.
        """
        for root, interval in self._intervals.items():
            constant = self._closure.constant_for(root)
            if constant is None:
                continue
            if interval.admits(constant.value) is False:
                self.empty = True


@dataclass(frozen=True)
class JoinStep:
    """One join of the plan: probe an access path, extend the binding.

    Attributes
    ----------
    atom:
        The relational atom this step evaluates.
    atom_index:
        The atom's position in the query body (stable across
        α-equivalent queries, which is what makes plan rebinding sound).
    virtual:
        True when the atom resolves to a view in the view store.
    lookup_positions / lookup_terms:
        The access path: positions constrained at probe time, and the
        aligned terms supplying the probe values (constants, or variables
        bound by earlier steps).
    introduces:
        ``(variable, position)`` pairs bound by this step (first
        occurrence of each new variable).
    equal_positions:
        Residual equality checks for repeated *new* variables within the
        atom (repeats of already-bound variables are part of the probe).
    comparisons:
        Comparison atoms whose variables are all bound once this step
        fires; checked before the binding is emitted.
    range_position / range_interval:
        The ordered narrowing of the access path: the position probed
        through a sorted index (bisect) and the merged interval.  With
        ``lookup_positions`` empty this is an *ordered* path replacing a
        scan; with ``lookup_positions`` set it is a *composite* path —
        one probe against a hash index whose buckets are kept sorted on
        this position.  The executor degrades to the hash probe (or
        scan) when the index cannot serve ordered probes (mixed types);
        the interval's comparisons are re-checked residually either way.
    pushed:
        The pushed comparisons this step's access path absorbs (for
        EXPLAIN attribution: each step renders its one chosen access
        path together with everything that path serves).
    estimated_matches:
        Estimated rows per probe (from statistics, at plan time).
    estimated_bindings:
        Estimated cumulative bindings after this step.
    """

    atom: RelationalAtom
    atom_index: int
    virtual: bool
    lookup_positions: tuple[int, ...]
    lookup_terms: tuple[Term, ...]
    introduces: tuple[tuple[Variable, int], ...]
    equal_positions: tuple[tuple[int, int], ...]
    comparisons: tuple[ComparisonAtom, ...]
    estimated_matches: float
    estimated_bindings: float
    range_position: int | None = None
    range_interval: Interval | None = None
    pushed: tuple[ComparisonAtom, ...] = ()

    @property
    def path_kind(self) -> str:
        """One of ``scan`` / ``hash`` / ``ordered`` / ``composite``."""
        if self.range_position is not None:
            return "composite" if self.lookup_positions else "ordered"
        return "hash" if self.lookup_positions else "scan"

    @property
    def access_path(self) -> str:
        """Human-readable access description for :meth:`QueryPlan.explain`."""
        kind = "virtual " if self.virtual else ""
        bound = ", ".join(
            f"[{position}]={term!r}"
            for position, term in zip(self.lookup_positions, self.lookup_terms)
        )
        if self.range_position is not None:
            assert self.range_interval is not None
            ordered = (
                f"[{self.range_position}] in "
                f"{self.range_interval.describe()}"
            )
            if bound:
                return f"{kind}composite index on {bound} + {ordered}"
            return f"{kind}ordered index on {ordered}"
        if not bound:
            return f"{kind}scan"
        return f"{kind}index on {bound}"


@dataclass(frozen=True)
class QueryPlan:
    """An executable logical plan for one conjunctive query."""

    query: ConjunctiveQuery
    steps: tuple[JoinStep, ...]
    estimated_cost: float
    estimated_bindings: float
    #: Equality comparisons folded into access paths (they do not appear
    #: in any step's residual ``comparisons``).
    pushed: tuple[ComparisonAtom, ...] = ()
    #: Range comparisons folded into ordered access paths (unlike
    #: ``pushed`` equalities they *also* stay residual: the bisect probe
    #: is a narrowing, the re-check guarantees reference semantics).
    pushed_ranges: tuple[ComparisonAtom, ...] = ()
    #: True when the result is provably empty without touching any data.
    empty: bool = False
    empty_reason: str = "false ground comparison"

    @property
    def shape(self) -> tuple:
        """The join order and access paths, without the estimates.

        Two plans of one query with equal shapes enumerate the same
        bindings in the same order over the same data.
        """
        return self.empty, tuple(
            (step.atom_index, step.lookup_positions, step.range_position,
             step.range_interval)
            for step in self.steps
        )

    def explain(self, diagnostics: Sequence[Any] | None = None) -> str:
        """Render the plan the way EXPLAIN would.

        ``diagnostics`` (findings from
        :func:`repro.analysis.diagnostics.analyze_query`) are appended
        as a trailing section, so EXPLAIN output carries the lint
        findings next to the plan they are about.
        """
        lines = [
            f"plan for {self.query}",
            f"  estimated cost {self.estimated_cost:.1f}, "
            f"estimated bindings {self.estimated_bindings:.1f}",
        ]

        def with_diagnostics() -> str:
            if diagnostics:
                lines.append("  diagnostics:")
                for finding in diagnostics:
                    lines.append(f"    {finding.describe()}")
            return "\n".join(lines)

        if self.empty:
            lines.append(f"  empty result ({self.empty_reason})")
            return with_diagnostics()
        # Pushed predicates are attributed to the steps whose access
        # paths serve them, and each step lists its single chosen path —
        # one line per probe, so an equality + range pair served by one
        # composite probe can never read as two separate probes.
        pushed_steps = [
            (number, step)
            for number, step in enumerate(self.steps, start=1)
            if step.pushed
        ]
        if pushed_steps:
            lines.append("  pushed predicates:")
            for number, step in pushed_steps:
                folded = ", ".join(repr(c) for c in step.pushed)
                lines.append(f"    step {number} [{step.access_path}]: {folded}")
        if not self.steps:
            lines.append("  single empty binding (no relational atoms)")
        for number, step in enumerate(self.steps, start=1):
            line = (
                f"  {number}. {step.atom!r}  [{step.access_path}]  "
                f"est. {step.estimated_matches:.2f} rows/probe, "
                f"{step.estimated_bindings:.1f} bindings"
            )
            if step.comparisons:
                checks = ", ".join(repr(c) for c in step.comparisons)
                line += f"  then check residual {checks}"
            lines.append(line)
        return with_diagnostics()

    def rebind(
        self,
        query: ConjunctiveQuery,
        renaming: Mapping[Variable, Variable],
    ) -> "QueryPlan":
        """Map a plan built for the canonical query back to ``query``.

        ``renaming`` is the caller's ``original -> canonical`` renaming;
        the plan's canonical variables are substituted through its
        inverse, and atoms are taken from the caller's body by index.
        """
        inverse = {canon: orig for orig, canon in renaming.items()}

        def back(term: Term) -> Term:
            if isinstance(term, Variable):
                return inverse[term]
            return term

        steps = tuple(
            JoinStep(
                atom=query.atoms[step.atom_index],
                atom_index=step.atom_index,
                virtual=step.virtual,
                lookup_positions=step.lookup_positions,
                lookup_terms=tuple(back(t) for t in step.lookup_terms),
                introduces=tuple(
                    (inverse[var], position)
                    for var, position in step.introduces
                ),
                equal_positions=step.equal_positions,
                comparisons=tuple(
                    c.substitute(inverse) for c in step.comparisons
                ),
                estimated_matches=step.estimated_matches,
                estimated_bindings=step.estimated_bindings,
                # Intervals hold constants only; rebinding is a no-op.
                range_position=step.range_position,
                range_interval=step.range_interval,
                pushed=tuple(c.substitute(inverse) for c in step.pushed),
            )
            for step in self.steps
        )
        return QueryPlan(
            query=query,
            steps=steps,
            estimated_cost=self.estimated_cost,
            estimated_bindings=self.estimated_bindings,
            pushed=tuple(c.substitute(inverse) for c in self.pushed),
            pushed_ranges=tuple(
                c.substitute(inverse) for c in self.pushed_ranges
            ),
            empty=self.empty,
            empty_reason=self.empty_reason,
        )


#: A prefix key: one structured, hashable tuple per step prefix (see
#: :func:`prefix_keys`).
PrefixKey = tuple


def prefix_keys(
    plan: QueryPlan,
) -> tuple[list[PrefixKey], dict[Variable, Variable]]:
    """Canonical keys for every step *prefix* of ``plan``.

    ``keys[k - 1]`` identifies the computation of ``plan.steps[:k]`` up
    to variable renaming: two plans with equal keys bind, probe, and
    filter identically over the same relations, so the binding sequence
    of one prefix can seed the other (the cross-query sub-plan memo,
    :mod:`repro.cq.subplan`).  The key covers everything the executor
    reads from a step — relation (and whether it is virtual), access
    path (lookup positions and terms, with constants by value), the
    introduced variables, same-row equality checks, residual comparisons
    (normalized and order-insensitive: filters commute), and the ordered
    narrowing — and deliberately omits the cost estimates, which are
    derived from the same statistics the memo versions against anyway.

    Keys are nested tuples, not strings: constants carry their *values*
    (tagged apart from variables), so no string constant — however full
    of delimiters or quotes — can forge a collision between different
    structures, and two keys are equal exactly when their computations
    are.  (Values that compare equal across types, ``1``/``1.0``, do
    share a key; probes and comparisons cannot distinguish them either.)

    Variables are renamed ``p0, p1, ...`` in order of first occurrence
    across the steps, so the numbering of a prefix never depends on the
    suffix; the returned renaming (``original -> canonical``, covering
    the whole plan) remaps materialized bindings into canonical space
    and back.  Unlike :func:`~repro.cq.canonical.canonical_key` this is
    keyed on the *plan*, after join ordering and pushdown: queries that
    are not α-equivalent as a whole still share every prefix their plans
    have in common.
    """
    renaming: dict[Variable, Variable] = {}

    def canon(term: Term) -> tuple:
        if isinstance(term, Variable):
            if term not in renaming:
                renaming[term] = Variable(f"p{len(renaming)}")
            return ("v", int(renaming[term].name[1:]))
        assert isinstance(term, Constant)
        return ("c", term.value)

    keys: list[PrefixKey] = []
    parts: list[tuple] = []
    for step in plan.steps:
        # Residual filters commute (every one must pass, and filtering
        # never reorders bindings), so comparisons are keyed as a sorted
        # multiset — sorted by repr, which is only an ordering device
        # (key *equality* compares the tuples themselves); their
        # variables are always named by this point, each introduced by
        # this or an earlier step.
        lookup = tuple(
            (position, canon(term))
            for position, term in zip(step.lookup_positions, step.lookup_terms)
        )
        introduces = tuple(
            (canon(var), position) for var, position in step.introduces
        )
        comparisons = tuple(sorted(
            (
                (c.op.value, canon(c.left), canon(c.right))
                for c in (c.normalized() for c in step.comparisons)
            ),
            key=repr,
        ))
        interval = step.range_interval
        narrowing = (
            None
            if step.range_position is None
            else (
                step.range_position,
                interval.lo, interval.lo_open,
                interval.hi, interval.hi_open,
            )
        )
        parts.append((
            step.atom.relation,
            step.virtual,
            step.atom.arity,
            lookup,
            introduces,
            step.equal_positions,
            comparisons,
            narrowing,
        ))
        keys.append(tuple(parts))
    return keys, renaming


def relation_for(
    atom: RelationalAtom,
    db: Database,
    virtual: Database | None,
) -> tuple[RelationInstance, bool]:
    """The instance ``atom`` reads, and whether it is a view.

    A name the view store ``virtual`` holds resolves there, any other
    to ``db``.  Raises :class:`QueryError` when the atom's arity is not
    the relation's (for a view, the arity of its head).
    """
    is_view = virtual is not None and atom.relation in virtual
    instance = (virtual if is_view else db).relation(atom.relation)
    if instance.schema.arity != atom.arity:
        raise QueryError(
            f"atom {atom!r} has arity {atom.arity}, relation has "
            f"{instance.schema.arity}"
        )
    return instance, is_view


def cache_tags(
    names: Iterable[str], db: Database, virtual: Database | None
) -> tuple[Database, tuple, tuple]:
    """The tags of a cache entry computed from the named relations.

    The database, the versions of its relations among ``names``
    (:meth:`~repro.relational.database.Database.versions`), and as the
    token the view store with the versions of its views among ``names``
    (``()`` when none is read).  Within a store's life a ``(store,
    view, version)`` triple names one extension, so equal tags mean the
    entry was computed over the same data.
    """
    names = tuple(names)
    views = virtual.versions(names) if virtual is not None else ()
    return db, db.versions(names), (virtual, views) if views else ()


def _estimate_access_paths(
    atom: RelationalAtom,
    stats: RelationStatistics,
    closure: _EqualityClosure,
    intervals: _IntervalClosure,
    bound_reps: Mapping[Variable, Variable],
) -> tuple[float, float]:
    """``(matched, probed)`` estimates for one probe of ``atom``.

    Variables forced to a constant by the equality closure count as
    constant constraints (exact frequencies); variables whose class has a
    member bound by an earlier step count as bound join variables;
    interval-constrained free variables count as range constraints
    (priced by the equi-depth histogram), once per variable.  ``matched``
    applies all of them (join ordering ranks atoms by it); ``probed``
    skips the range constraints — the rows a hash-only probe touches —
    so the cost model can price a composite probe (which narrows the
    range inside the probe) against a single-index probe (which filters
    the bucket residually).
    """
    variable_positions: list[int] = []
    constant_constraints: list[tuple[int, Any]] = []
    range_constraints: list[tuple[int, Interval]] = []
    ranged: set[Variable] = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_constraints.append((position, term.value))
            continue
        constant = closure.constant_for(term)
        if constant is not None:
            constant_constraints.append((position, constant.value))
            continue
        root = closure.find(term)
        if root in bound_reps:
            variable_positions.append(position)
            continue
        interval = intervals.interval_for(term)
        if interval is not None and root not in ranged:
            # Dedup by equality class, not by variable: X = Y share one
            # interval, counting it per occurrence would square the
            # selectivity and skew the join order.
            ranged.add(root)
            range_constraints.append((position, interval))
    return stats.estimate_access_paths(
        variable_positions, constant_constraints, range_constraints
    )


def _choose_ordered_position(
    stats: RelationStatistics,
    intervals: _IntervalClosure,
    introduces: Sequence[tuple[Variable, int]],
    lookup_positions: Sequence[int],
) -> tuple[int, Interval, Variable] | None:
    """The ordered narrowing of a step's access path, if any applies.

    Among the introduced positions not already equality-bound by the
    probe, picks the most selective interval-constrained one (by
    histogram estimate): on a scanning step it upgrades the scan to an
    ordered access path, on a hash-probing step it upgrades the probe to
    a composite one.  Positions whose class carries an equality constant
    never qualify (``interval_for`` withholds their intervals — the
    constant probe is strictly stronger).
    """
    taken = frozenset(lookup_positions)
    best = None
    best_selectivity = None
    for term, position in introduces:
        if position in taken:
            continue
        interval = intervals.interval_for(term)
        if interval is None:
            continue
        selectivity = stats.range_selectivity(position, interval)
        if best_selectivity is None or selectivity < best_selectivity:
            best_selectivity = selectivity
            best = (position, interval, term)
    return best


def _build_step(
    atom: RelationalAtom,
    atom_index: int,
    virtual: bool,
    stats: RelationStatistics,
    bound_vars: set[Variable],
    bound_reps: Mapping[Variable, Variable],
    closure: _EqualityClosure,
    intervals: _IntervalClosure,
    pushed_equalities: Mapping[Variable, Sequence[ComparisonAtom]],
    pushed_ranges: Mapping[Variable, Sequence[ComparisonAtom]],
    comparisons: Sequence[ComparisonAtom],
    estimated_matches: float,
    estimated_bindings: float,
) -> JoinStep:
    """Precompute the access path and residual checks for one join.

    Positions whose variable is forced to a constant by the equality
    closure probe with that constant; positions whose variable's class
    was bound by an earlier step probe with the bound member.  Either
    way the variable is still *introduced* from the matching row, so
    bindings keep every body variable (the citation model sums per
    binding, Def 3.2).

    An interval-constrained introduced position then adds an ordered
    narrowing (:func:`_choose_ordered_position`): where the step would
    scan it becomes an *ordered* access path (bisect over a sorted
    secondary index); where it already hash-probes it becomes a
    *composite* access path — one probe against a hash index whose
    buckets are kept sorted on the ordered position, so the equality and
    range predicates are answered by a single hash-lookup-plus-bisect.

    The pushed comparisons each part of the path serves are collected
    into ``JoinStep.pushed``: every step renders its *single* chosen
    access path with everything it absorbs (a comparison whose class
    feeds several steps' probes — ``R(X), S(X), X = 3`` — is listed
    under each serving step).
    """
    lookup_positions: list[int] = []
    lookup_terms: list[Term] = []
    introduces: list[tuple[Variable, int]] = []
    introduced: set[Variable] = set()
    class_first_position: dict[Variable, int] = {}
    equal_positions: list[tuple[int, int]] = []
    served: list[ComparisonAtom] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            lookup_positions.append(position)
            lookup_terms.append(term)
            continue
        constant = closure.constant_for(term)
        if constant is not None:
            lookup_positions.append(position)
            lookup_terms.append(constant)
            served.extend(pushed_equalities.get(closure.find(term), ()))
            if term not in bound_vars and term not in introduced:
                introduces.append((term, position))
                introduced.add(term)
            continue
        if term in bound_vars:
            lookup_positions.append(position)
            lookup_terms.append(term)
            continue
        root = closure.find(term)
        bound_mate = bound_reps.get(root)
        if bound_mate is not None:
            # X = Y pushdown: Y's class-mate X is already bound, so probe
            # with X's value instead of filtering afterwards.
            lookup_positions.append(position)
            lookup_terms.append(bound_mate)
            served.extend(pushed_equalities.get(root, ()))
            if term not in introduced:
                introduces.append((term, position))
                introduced.add(term)
            continue
        if root in class_first_position:
            # Repeated variable, or two class-mates first met in this
            # atom: a same-row equality check enforces both cases.
            equal_positions.append((class_first_position[root], position))
            if term not in introduced:
                introduces.append((term, position))
                introduced.add(term)
            continue
        class_first_position[root] = position
        introduces.append((term, position))
        introduced.add(term)
    range_position: int | None = None
    range_interval: Interval | None = None
    ordered = _choose_ordered_position(
        stats, intervals, introduces, lookup_positions
    )
    if ordered is not None:
        range_position, range_interval, range_term = ordered
        served.extend(pushed_ranges.get(closure.find(range_term), ()))
    return JoinStep(
        atom=atom,
        atom_index=atom_index,
        virtual=virtual,
        lookup_positions=tuple(lookup_positions),
        lookup_terms=tuple(lookup_terms),
        introduces=tuple(introduces),
        equal_positions=tuple(equal_positions),
        comparisons=tuple(comparisons),
        estimated_matches=estimated_matches,
        estimated_bindings=estimated_bindings,
        range_position=range_position,
        range_interval=range_interval,
        pushed=tuple(dict.fromkeys(served)),
    )


def plan_query(
    query: ConjunctiveQuery,
    db: Database,
    virtual: Database | None = None,
) -> QueryPlan:
    """Build a cost-based plan for ``query`` over ``db``.

    This is the entry into stage two of the evaluation pipeline (the
    paper's query semantics, Def 2.1): it chooses a greedy
    minimum-intermediate-cardinality join order from statistics, folds
    pushable equality comparisons into access paths through the equality
    closure, folds pushable range comparisons into ordered access paths
    through the interval closure, and schedules the residual comparisons
    at the earliest step that binds their variables.

    Parameters
    ----------
    query:
        The conjunctive query; must be safe and non-parameterized,
        exactly like the old evaluator entry points.
    db:
        The database whose statistics drive the cost model (and whose
        relations the plan's base access paths resolve to).
    virtual:
        Optional view store (:func:`~repro.relational.database.view_store`)
        whose materialized views the query body may read.

    Returns
    -------
    QueryPlan
        An executable plan; ``empty`` is set when a false ground
        comparison or contradictory pushed equalities prove the result
        empty without touching data.  Raises :class:`QueryError` on arity
        mismatches (base relations and views) at plan time.
    """
    if query.is_parameterized:
        raise QueryError(
            f"cannot evaluate parameterized query {query.name}: instantiate "
            "its λ-parameters first"
        )
    query.check_safety()

    # Ground comparisons hold for every binding or none; pushable
    # equalities fold into the equality closure; everything else stays
    # residual.  Absorbed variable-variable equalities are *also* kept
    # residual: their probes narrow, the re-check guarantees ==
    # semantics.  Range comparisons feed the interval closure in a
    # second pass — after every `=` has been absorbed, so intervals
    # attach to the *final* equivalence classes — and each stays
    # residual as well (the bisect probe is a pure narrowing).
    pending: list[ComparisonAtom] = []
    closure = _EqualityClosure()
    range_candidates: list[ComparisonAtom] = []
    for comparison in query.comparisons:
        if comparison.is_ground:
            if not comparison.evaluate_ground():
                return _maybe_verify(
                    QueryPlan(query, (), 0.0, 0.0, empty=True)
                )
            continue
        if closure.absorb(comparison):
            if closure.needs_recheck(comparison):
                pending.append(comparison)
            continue
        pending.append(comparison)
        if comparison.op in _RANGE_OPS:
            range_candidates.append(comparison)
    if closure.contradiction:
        return _maybe_verify(QueryPlan(
            query,
            (),
            0.0,
            0.0,
            pushed=tuple(closure.pushed),
            empty=True,
            empty_reason="contradictory equality comparisons",
        ))
    intervals = _IntervalClosure(closure)
    for comparison in range_candidates:
        intervals.absorb(comparison)
    intervals.finalize()
    if intervals.empty:
        return _maybe_verify(QueryPlan(
            query,
            (),
            0.0,
            0.0,
            pushed=tuple(closure.pushed),
            pushed_ranges=tuple(intervals.pushed),
            empty=True,
            empty_reason="empty range interval",
        ))

    resolved = [
        (instance.stats, is_view)
        for instance, is_view in (
            relation_for(atom, db, virtual) for atom in query.atoms
        )
    ]
    pushed_equalities = closure.pushed_by_class()
    pushed_range_map = intervals.pushed_by_class()
    remaining = list(range(len(query.atoms)))
    bound_vars: set[Variable] = set()
    #: class representative -> first variable of the class bound so far.
    bound_reps: dict[Variable, Variable] = {}
    steps: list[JoinStep] = []
    bindings = 1.0
    cost = 0.0
    while remaining:
        best_index = None
        best_estimate = None
        best_probed = None
        for atom_index in remaining:
            matched, probed = _estimate_access_paths(
                query.atoms[atom_index],
                resolved[atom_index][0],
                closure,
                intervals,
                bound_reps,
            )
            if best_estimate is None or matched < best_estimate:
                best_index, best_estimate, best_probed = (
                    atom_index, matched, probed,
                )
        remaining.remove(best_index)
        atom = query.atoms[best_index]
        new_bindings = bindings * best_estimate

        new_bound = bound_vars | set(atom.variables())
        ready = [c for c in pending if set(c.variables()) <= new_bound]
        pending = [c for c in pending if not set(c.variables()) <= new_bound]
        step = _build_step(
            atom,
            best_index,
            resolved[best_index][1],
            resolved[best_index][0],
            bound_vars,
            bound_reps,
            closure,
            intervals,
            pushed_equalities,
            pushed_range_map,
            ready,
            best_estimate,
            new_bindings,
        )
        steps.append(step)
        # Cost is rows *touched* per probe, times upstream bindings: an
        # ordered/composite path narrows by its one served interval
        # inside the probe, while every other constraint (residual
        # ranges, hash-only probes, scans) filters the probed rows
        # afterwards.
        touched = best_probed
        if step.range_position is not None:
            touched *= resolved[best_index][0].range_selectivity(
                step.range_position, step.range_interval
            )
        cost += bindings * max(touched, 1.0)
        bindings = new_bindings
        bound_vars = new_bound
        for var in atom.variables():
            bound_reps.setdefault(closure.find(var), var)
    if pending:
        # Safety check above should prevent this.
        raise QueryError("comparison variables not bound by relational atoms")
    return _maybe_verify(
        QueryPlan(
            query,
            tuple(steps),
            cost,
            bindings,
            pushed=tuple(closure.pushed),
            pushed_ranges=tuple(intervals.pushed),
        )
    )


#: Default plan-cache bound: generous for template-shaped traffic (a few
#: thousand distinct structures), finite under millions-of-distinct-query
#: traffic where an unbounded cache would grow without limit.
DEFAULT_PLAN_CACHE_ENTRIES = 4096


class QueryPlanner:
    """A plan cache keyed by the α-equivalence canonical key.

    Plans are built once per query *structure* (for its canonical form)
    and rebound to each caller's variables — the same sharing discipline
    as :class:`repro.citation.cache.CachedRewritingEngine`.  A cached
    entry is invalidated when a relation it reads changes, base relation
    or view (:func:`cache_tags`: per-relation versions, so a write to
    another relation leaves it warm), since that can change the optimal
    join order.

    Two :class:`~repro.util.lru.VersionedLRU` levels, each bounded by
    ``max_entries``: the canonical cache, and an exact-match fast path
    for repeated evaluation of the *same* query (the common front-end
    case), which skips canonicalization and rebinding entirely.  Every
    call is one hit or one miss: an exact-level miss falls through to
    the canonical level, which decides.
    """

    def __init__(
        self,
        db: Database,
        max_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
    ) -> None:
        self.db = db
        self._canonical_cache: VersionedLRU[str, QueryPlan] = VersionedLRU(
            max_entries, "plan cache (canonical)"
        )
        # Queries hash by structure, so equal query objects share the
        # exact-level entry.
        self._exact_cache: VersionedLRU[ConjunctiveQuery, QueryPlan] = (
            VersionedLRU(max_entries, "plan cache (exact)")
        )

    @property
    def hits(self) -> int:
        return self._exact_cache.hits + self._canonical_cache.hits

    @property
    def misses(self) -> int:
        return self._canonical_cache.misses

    @property
    def evictions(self) -> int:
        return self._exact_cache.evictions + self._canonical_cache.evictions

    @property
    def size(self) -> int:
        return len(self._canonical_cache)

    def counters(self) -> dict[str, int]:
        """Hit/miss/eviction counters and size, as ``/stats`` reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
        }

    def plan(
        self,
        query: ConjunctiveQuery,
        virtual: Database | None = None,
    ) -> QueryPlan:
        if query.is_parameterized:
            # A plan binds every body variable from the data; it would
            # evaluate λ-parameters as if they were free variables.
            raise QueryError(
                f"cannot evaluate parameterized query {query.name}: "
                "instantiate its λ-parameters first"
            )
        # Safety-check before canonicalizing so an unsafe query (e.g. a
        # comparison over a variable no relational atom binds) is
        # reported in the *caller's* variable names, not as the
        # canonical `vN` that plan_query would see.
        query.check_safety()
        tags = cache_tags(query.relation_names(), self.db, virtual)
        plan = self._exact_cache.get(query, *tags)
        if plan is not None:
            return _maybe_verify(plan)
        key, renaming = canonical_key_and_renaming(query)
        canonical = self._canonical_cache.get(key, *tags)
        if canonical is None:
            canonical = plan_query(
                canonical_query(query, renaming), self.db, virtual
            )
            self._canonical_cache.put(key, canonical, *tags)
        plan = canonical.rebind(query, renaming)
        self._exact_cache.put(query, plan, *tags)
        return _maybe_verify(plan)

    def clear(self) -> None:
        self._canonical_cache.clear()
        self._exact_cache.clear()
