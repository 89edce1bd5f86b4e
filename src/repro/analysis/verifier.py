"""Structural plan verification: a sanitizer for the planning pipeline.

The optimizer stack (access-path selection, predicate pushdown, subplan
memoization) preserves an implicit contract with the executor: every
probe value is available when the probe fires, every comparison of the
source query is applied exactly once, every access path is applicable
to the position it serves.  Until now only the
end-to-end differential tests (planned ≡ reference) stood between an
optimizer bug and a wrong citation.  :func:`verify_plan` turns that
contract into machine-checked rules:

1. **Boundness** — every variable appearing in a probe term or residual
   comparison is bound by a prior (or, for comparisons, the current)
   step before it is read.
2. **Comparison accounting** — every comparison of the source query is
   accounted for exactly once: pushed into an access path, scheduled as
   a residual, or both where the pushdown discipline demands a re-check
   (variable-variable equalities, all ranges).  No comparison is
   dropped, none is double-applied.
3. **Access-path applicability** — hash probes only on equality-bound
   lookup positions (constants, closure constants, or variables bound
   earlier); ordered/composite bisect only on interval-carrying
   *introduced* positions, never on a position whose equality class is
   forced to a constant (the constant probe is strictly stronger).
4. **Rebind round-trip** — rebinding the plan to its own query through
   the identity renaming reproduces the plan exactly.
5. **Prefix-key suffix independence** — the canonical prefix keys of
   every truncation of the plan agree with the full plan's keys, so the
   subplan memo can never seed a prefix whose key depended on its
   suffix.

Violations raise :class:`PlanVerificationError` carrying step-indexed
messages.  The verifier recomputes the equality/interval closures from
the plan's own query — the same ground truth the planner used — so a
plan mutated after planning (swapped steps, dropped residuals,
mislabeled access paths) is rejected rather than rubber-stamped; the
mutation-kill suite in ``tests/analysis`` proves each corruption class
is caught.

Run it everywhere with the process-wide switch
:func:`repro.cq.plan.set_plan_verification`
(``REPRO_VERIFY_PLANS=always`` in the environment seeds the default),
which the test suite's ``--verify-plans`` option flips to sanitize every
plan the entire suite produces.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Sequence
from typing import Any

from repro.cq.plan import (
    _RANGE_OPS,
    QueryPlan,
    _EqualityClosure,
    _IntervalClosure,
    prefix_keys,
)
from repro.cq.terms import Constant, Variable
from repro.errors import ReproError


class PlanVerificationError(ReproError):
    """A plan violates a structural invariant of the planning contract.

    :attr:`violations` lists every step-indexed violation found (the
    verifier checks the whole rulebook before raising, so one pass
    reports every problem, not just the first).
    """

    def __init__(self, plan: QueryPlan, violations: Sequence[str]) -> None:
        self.plan = plan
        self.violations = list(violations)
        details = "\n  ".join(self.violations)
        super().__init__(
            f"plan for {plan.query} failed verification "
            f"({len(self.violations)} violation(s)):\n  {details}"
        )


def _same_value(left: Any, right: Any) -> bool:
    """Value equality that treats NaN as equal to itself.

    The planner carries NaN constants straight from query atoms into
    probe terms; comparing them with ``==`` would flag sound plans.
    """
    if left != left and right != right:
        return True
    return bool(left == right)


def _comparison_key(comparison) -> tuple:
    """Hashable identity of a comparison, modulo orientation and NaN.

    Plans built for the canonical query and rebound to the caller's
    variables may spell ``X1 = X0`` as ``X0 = X1`` (normalization flips
    the orientation), and a NaN constant is unequal to *itself* under
    value equality — both would wreck multiset accounting keyed on the
    atoms themselves.
    """
    normalized = comparison.normalized()

    def term_key(term) -> tuple:
        if isinstance(term, Variable):
            return ("v", term.name)
        value = term.value
        if value != value:
            return ("c", "nan")
        return ("c", value)

    return (
        normalized.op.value,
        term_key(normalized.left),
        term_key(normalized.right),
    )


def _recompute_closures(
    plan: QueryPlan,
) -> tuple[_EqualityClosure, _IntervalClosure, Counter, dict, list[str]]:
    """Replay the planner's pushdown pass over the plan's query.

    Returns the equality and interval closures, the expected residual
    comparison multiset (keyed by :func:`_comparison_key`, with a
    representative atom per key for messages), and any violations found
    while replaying (a false ground comparison on a non-empty plan,
    say).
    """
    violations: list[str] = []
    closure = _EqualityClosure()
    expected_residual: Counter = Counter()
    representatives: dict = {}
    range_candidates = []
    for comparison in plan.query.comparisons:
        if comparison.is_ground:
            if not comparison.evaluate_ground() and not plan.empty:
                violations.append(
                    f"ground comparison {comparison!r} is false but the "
                    "plan is not marked empty"
                )
            continue
        key = _comparison_key(comparison)
        representatives.setdefault(key, comparison)
        if closure.absorb(comparison):
            if closure.needs_recheck(comparison):
                expected_residual[key] += 1
            continue
        expected_residual[key] += 1
        if comparison.op in _RANGE_OPS:
            range_candidates.append(comparison)
    intervals = _IntervalClosure(closure)
    for comparison in range_candidates:
        intervals.absorb(comparison)
    intervals.finalize()
    return closure, intervals, expected_residual, representatives, violations


def _check_empty_reason(
    plan: QueryPlan,
    closure: _EqualityClosure,
    intervals: _IntervalClosure,
) -> list[str]:
    """An empty plan must be *provably* empty for its stated reason."""
    violations: list[str] = []
    if plan.steps:
        violations.append(
            "empty plan carries join steps (empty plans never touch data)"
        )
    reason = plan.empty_reason
    if reason == "false ground comparison":
        if not any(
            c.is_ground and not c.evaluate_ground()
            for c in plan.query.comparisons
        ):
            violations.append(
                "plan claims a false ground comparison but every ground "
                "comparison of the query is true"
            )
    elif reason == "contradictory equality comparisons":
        if not closure.contradiction:
            violations.append(
                "plan claims contradictory equalities but the equality "
                "closure of the query is satisfiable"
            )
    elif reason == "empty range interval":
        if not intervals.empty:
            violations.append(
                "plan claims an empty range interval but the interval "
                "closure of the query is satisfiable"
            )
    else:
        violations.append(f"unknown empty reason {reason!r}")
    return violations


def _check_step_structure(
    plan: QueryPlan,
    closure: _EqualityClosure,
    intervals: _IntervalClosure,
) -> list[str]:
    """Boundness and access-path applicability, step by step."""
    violations: list[str] = []
    query = plan.query
    seen_atoms: Counter = Counter()
    bound: set[Variable] = set()
    for number, step in enumerate(plan.steps, start=1):
        where = f"step {number}"
        atom = step.atom
        if not 0 <= step.atom_index < len(query.atoms):
            violations.append(
                f"{where}: atom_index {step.atom_index} outside the query "
                f"body (0..{len(query.atoms) - 1})"
            )
        elif query.atoms[step.atom_index] != atom:
            violations.append(
                f"{where}: step atom {atom!r} differs from query atom "
                f"{query.atoms[step.atom_index]!r} at index {step.atom_index}"
            )
        seen_atoms[step.atom_index] += 1

        arity = atom.arity
        if len(step.lookup_positions) != len(step.lookup_terms):
            violations.append(
                f"{where}: {len(step.lookup_positions)} lookup positions vs "
                f"{len(step.lookup_terms)} lookup terms"
            )
            continue
        if list(step.lookup_positions) != sorted(set(step.lookup_positions)):
            violations.append(
                f"{where}: lookup positions {step.lookup_positions} are not "
                "strictly increasing"
            )
        lookup_at = dict(zip(step.lookup_positions, step.lookup_terms))
        introduces_at = {position: var for var, position in step.introduces}

        for position, term in lookup_at.items():
            if not 0 <= position < arity:
                violations.append(
                    f"{where}: lookup position {position} outside arity "
                    f"{arity} of {atom!r}"
                )
                continue
            if isinstance(term, Variable) and term not in bound:
                violations.append(
                    f"{where}: probe variable {term!r} at position "
                    f"{position} is not bound by any prior step"
                )

        # Hash probes only on equality-bound positions; free positions
        # never probed.
        for position, term in enumerate(atom.terms):
            probe = lookup_at.get(position)
            if isinstance(term, Constant):
                if probe is None:
                    violations.append(
                        f"{where}: constant position {position} of {atom!r} "
                        "is not part of the probe"
                    )
                elif not isinstance(probe, Constant) or not _same_value(
                    probe.value, term.value
                ):
                    violations.append(
                        f"{where}: position {position} holds constant "
                        f"{term!r} but probes {probe!r}"
                    )
                continue
            constant = closure.constant_for(term)
            if constant is not None:
                if probe is None:
                    # The planner always probes constant-forced positions.
                    violations.append(
                        f"{where}: position {position} is forced to "
                        f"{constant!r} by the equality closure but is not "
                        "probed"
                    )
                elif not isinstance(probe, Constant) or not _same_value(
                    probe.value, constant.value
                ):
                    violations.append(
                        f"{where}: position {position} is forced to "
                        f"{constant!r} but probes {probe!r}"
                    )
                continue
            if probe is None:
                continue
            if isinstance(probe, Constant):
                violations.append(
                    f"{where}: position {position} of {atom!r} probes "
                    f"constant {probe!r} but its equality class carries no "
                    "constant (not an equality-bound position)"
                )
            elif closure.find(probe) != closure.find(term):
                violations.append(
                    f"{where}: position {position} holds {term!r} but "
                    f"probes {probe!r}, which is not in its equality class"
                )

        # Introduced variables: first occurrence, at their own position.
        for var, position in step.introduces:
            if not 0 <= position < arity:
                violations.append(
                    f"{where}: introduced position {position} outside arity "
                    f"{arity} of {atom!r}"
                )
                continue
            if atom.terms[position] != var:
                violations.append(
                    f"{where}: introduces {var!r} at position {position} "
                    f"but the atom holds {atom.terms[position]!r} there"
                )
            if var in bound:
                violations.append(
                    f"{where}: {var!r} is introduced here but already bound "
                    "by a prior step"
                )

        # Every position must be constrained or introduced; a position
        # the step neither probes, introduces, nor equality-checks is
        # one the executor silently ignores (any row value accepted).
        covered = (
            set(lookup_at)
            | set(introduces_at)
            | {second for __, second in step.equal_positions}
        )
        for position in range(arity):
            if position not in covered:
                violations.append(
                    f"{where}: position {position} of {atom!r} is neither "
                    "probed, introduced, nor equality-checked (the "
                    "executor would accept any value there)"
                )

        # Same-row equality checks pair positions of one equality class.
        for first, second in step.equal_positions:
            if not (0 <= first < second < arity):
                violations.append(
                    f"{where}: equal-position pair ({first}, {second}) is "
                    f"not an ordered pair within arity {arity}"
                )
                continue
            left, right = atom.terms[first], atom.terms[second]
            if not (
                isinstance(left, Variable)
                and isinstance(right, Variable)
                and closure.find(left) == closure.find(right)
            ):
                violations.append(
                    f"{where}: equal-position pair ({first}, {second}) "
                    f"relates {left!r} and {right!r}, which are not "
                    "class-mates"
                )

        # Ordered/composite narrowing: interval-carrying introduced
        # positions only, never equality-bound, never constant-forced.
        if (step.range_position is None) != (step.range_interval is None):
            violations.append(
                f"{where}: range_position and range_interval must be set "
                "together "
                f"(got {step.range_position!r} / {step.range_interval!r})"
            )
        elif step.range_position is not None:
            position = step.range_position
            if position in lookup_at:
                violations.append(
                    f"{where}: ordered narrowing on position {position} "
                    "which the hash probe already binds"
                )
            var = introduces_at.get(position)
            if var is None:
                violations.append(
                    f"{where}: ordered narrowing on position {position} "
                    "which this step does not introduce"
                )
            else:
                interval = intervals.interval_for(var)
                if interval is None:
                    if closure.constant_for(var) is not None:
                        violations.append(
                            f"{where}: ordered narrowing on {var!r} whose "
                            "equality class is forced to a constant (the "
                            "constant probe is strictly stronger)"
                        )
                    else:
                        violations.append(
                            f"{where}: ordered narrowing on {var!r} whose "
                            "equality class carries no pushed interval"
                        )
                elif interval != step.range_interval:
                    violations.append(
                        f"{where}: plan interval "
                        f"{step.range_interval.describe()} differs from the "
                        f"closure interval {interval.describe()} for {var!r}"
                    )
            if (
                step.range_interval is not None
                and step.range_interval.is_empty() is True
            ):
                violations.append(
                    f"{where}: ordered narrowing over a provably empty "
                    "interval (the plan should have short-circuited)"
                )

        # Residual comparisons are checkable once this step fires.
        step_bound = bound | {var for var, __ in step.introduces}
        for comparison in step.comparisons:
            unbound = [
                v for v in comparison.variables() if v not in step_bound
            ]
            if unbound:
                names = ", ".join(repr(v) for v in unbound)
                violations.append(
                    f"{where}: residual {comparison!r} reads {names}, "
                    "not bound by this or any prior step"
                )
        bound = step_bound

    for atom_index, count in sorted(seen_atoms.items()):
        if count > 1:
            violations.append(
                f"atom index {atom_index} is evaluated by {count} steps"
            )
    missing = set(range(len(query.atoms))) - set(seen_atoms)
    for atom_index in sorted(missing):
        violations.append(
            f"query atom {query.atoms[atom_index]!r} (index {atom_index}) "
            "is not evaluated by any step"
        )
    return violations


def _check_comparison_accounting(
    plan: QueryPlan,
    closure: _EqualityClosure,
    intervals: _IntervalClosure,
    expected_residual: Counter,
    representatives: dict,
) -> list[str]:
    """Every source comparison lands exactly once (pushed or residual)."""
    violations: list[str] = []
    residual: Counter = Counter()
    locations: dict[tuple, list[int]] = {}
    for number, step in enumerate(plan.steps, start=1):
        for comparison in step.comparisons:
            key = _comparison_key(comparison)
            representatives.setdefault(key, comparison)
            residual[key] += 1
            locations.setdefault(key, []).append(number)

    def ready_step(comparison) -> str:
        """The step whose bindings first cover a comparison's variables."""
        needed = set(comparison.variables())
        bound: set[Variable] = set()
        for number, step in enumerate(plan.steps, start=1):
            bound |= {var for var, __ in step.introduces}
            if needed <= bound:
                return f"step {number}"
        return "no step"

    def at_steps(key: tuple) -> str:
        return ", ".join(f"step {n}" for n in locations.get(key, ()))

    for key, count in expected_residual.items():
        comparison = representatives[key]
        got = residual.get(key, 0)
        if got < count:
            violations.append(
                f"{ready_step(comparison)}: residual comparison "
                f"{comparison!r} dropped (scheduled {got} time(s), the "
                f"query requires {count})"
            )
        elif got > count:
            violations.append(
                f"residual comparison {comparison!r} double-applied at "
                f"{at_steps(key)} (the query requires {count})"
            )
    for key in residual:
        if key not in expected_residual:
            violations.append(
                f"{at_steps(key)}: residual comparison "
                f"{representatives[key]!r} does not belong to the query "
                "(or should have been fully absorbed)"
            )

    expected_pushed = Counter(_comparison_key(c) for c in closure.pushed)
    expected_ranges = Counter(_comparison_key(c) for c in intervals.pushed)
    if Counter(_comparison_key(c) for c in plan.pushed) != expected_pushed:
        violations.append(
            f"pushed equalities {list(plan.pushed)!r} differ from the "
            f"equality closure's {list(closure.pushed)!r}"
        )
    if (
        Counter(_comparison_key(c) for c in plan.pushed_ranges)
        != expected_ranges
    ):
        violations.append(
            f"pushed ranges {list(plan.pushed_ranges)!r} differ from the "
            f"interval closure's {list(intervals.pushed)!r}"
        )
    served = expected_pushed + expected_ranges
    for number, step in enumerate(plan.steps, start=1):
        for comparison in step.pushed:
            if _comparison_key(comparison) not in served:
                violations.append(
                    f"step {number}: attributes pushed comparison "
                    f"{comparison!r} that no closure absorbed"
                )
    return violations


def _check_rebind_roundtrip(plan: QueryPlan) -> list[str]:
    """Rebinding through the identity renaming must reproduce the plan."""
    variables: dict[Variable, Variable] = {
        var: var for var in plan.query.variables()
    }
    for step in plan.steps:
        for term in step.lookup_terms:
            if isinstance(term, Variable):
                variables.setdefault(term, term)
        for var, __ in step.introduces:
            variables.setdefault(var, var)
        for comparison in list(step.comparisons) + list(step.pushed):
            for var in comparison.variables():
                variables.setdefault(var, var)
    try:
        rebound = plan.rebind(plan.query, variables)
    except Exception as error:  # noqa: BLE001 - report, don't mask
        return [f"rebind round-trip raised {type(error).__name__}: {error}"]
    # Compare by repr, not ==: a NaN constant is unequal to itself under
    # value equality, but rebinding must still reproduce it in place.
    if repr(rebound) != repr(plan) or rebound.query != plan.query:
        return [
            "rebind round-trip through the identity renaming does not "
            "reproduce the plan"
        ]
    return []


def _check_prefix_keys(plan: QueryPlan) -> list[str]:
    """Prefix keys must not depend on the suffix of the plan."""
    if not plan.steps:
        return []
    try:
        keys, __ = prefix_keys(plan)
    except Exception as error:  # noqa: BLE001 - report, don't mask
        return [f"prefix_keys raised {type(error).__name__}: {error}"]
    violations = []
    for length in range(1, len(plan.steps)):
        truncated = dataclasses.replace(plan, steps=plan.steps[:length])
        truncated_keys, __ = prefix_keys(truncated)
        if truncated_keys != keys[:length]:
            violations.append(
                f"prefix key of steps 1-{length} changes when the suffix "
                "is dropped (the subplan memo would mis-share it)"
            )
    return violations


def check_plan(plan: QueryPlan) -> list[str]:
    """Run the whole rulebook; return every violation found (no raise)."""
    closure, intervals, expected_residual, representatives, violations = (
        _recompute_closures(plan)
    )
    if plan.empty:
        violations += _check_empty_reason(plan, closure, intervals)
        return violations
    if closure.contradiction:
        violations.append(
            "query has contradictory pushed equalities but the plan is "
            "not marked empty"
        )
    if intervals.empty:
        violations.append(
            "query has a provably empty pushed interval but the plan is "
            "not marked empty"
        )
    violations += _check_step_structure(plan, closure, intervals)
    violations += _check_comparison_accounting(
        plan, closure, intervals, expected_residual, representatives
    )
    violations += _check_rebind_roundtrip(plan)
    violations += _check_prefix_keys(plan)
    return violations


def verify_plan(plan: QueryPlan) -> QueryPlan:
    """Raise :class:`PlanVerificationError` unless ``plan`` is sound.

    Returns the plan unchanged, so call sites can verify in passing:
    ``return verify_plan(plan_query(q, db))``.
    """
    violations = check_plan(plan)
    if violations:
        raise PlanVerificationError(plan, violations)
    return plan


def verify_plans(plans: Sequence[QueryPlan]) -> Sequence[QueryPlan]:
    """Verify every plan of a union (or any plan collection)."""
    for plan in plans:
        verify_plan(plan)
    return plans
