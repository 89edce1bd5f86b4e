"""Stable-coded lint diagnostics for conjunctive and union queries.

Where the verifier (:mod:`repro.analysis.verifier`) rejects *plans* that
violate the planning contract, this module flags *queries* that are
legal but almost certainly not what the author meant — the kind of
mistake that silently cites the wrong thing rather than erroring.

Codes are stable (tests and tooling may match on them):

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
QA101     warning   cartesian-product step: a join step probes nothing
QA102     warning   union disjunct subsumed by another disjunct
QA103     warning   dangling atom: shares no variables with the rest
QA104     warning   single-use body variable (possible typo)
QA105     warning   mixed-type comparison risk (from statistics)
QA110     warning   union disjunct is provably empty
QA201     error     contradictory equality comparisons
QA202     error     provably empty range interval
QA203     error     false ground comparison
QA204     error     union provably empty (every disjunct is)
========  ========  =====================================================

``QA1xx`` findings are advisory; ``QA2xx`` findings mean the query can
never return a row, which the CLI (``repro analyze``, and ``plan`` /
``cite`` on such queries) reports with a distinct exit status.  Only
``QA101`` and ``QA105`` read a database, and both are warnings: whether
a query is provably empty depends on its text alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.cq.containment import is_contained_in
from repro.cq.plan import (
    _RANGE_OPS,
    _EqualityClosure,
    _IntervalClosure,
    plan_query,
    relation_for,
)
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.cq.ucq import UnionQuery
from repro.errors import QueryError, ReproError, UnknownRelationError
from repro.relational.database import Database
from repro.relational.schema import Schema

#: Severity levels, in increasing order of trouble.
WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, and a located message."""

    code: str
    severity: str
    message: str
    #: 1-based join-step number, when the finding is about a plan step.
    step: int | None = None
    #: 0-based disjunct index, when the finding is about a union member.
    disjunct: int | None = None

    def describe(self) -> str:
        """Render the finding the way ``repro analyze`` prints it."""
        where = ""
        if self.disjunct is not None:
            where += f" [disjunct {self.disjunct}]"
        if self.step is not None:
            where += f" [step {self.step}]"
        return f"{self.code} {self.severity}{where}: {self.message}"

    def located(self, disjunct: int) -> "Diagnostic":
        """The same finding, attributed to a union disjunct."""
        return Diagnostic(
            self.code, self.severity, self.message, self.step, disjunct
        )


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any finding is error-severity (query provably empty)."""
    return any(d.severity == ERROR for d in diagnostics)


def _type_category(value: object) -> str:
    """Coarse comparability class of a value (bool/int/float compare)."""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _closure_diagnostics(
    query: ConjunctiveQuery,
) -> tuple[list[Diagnostic], _EqualityClosure, _IntervalClosure]:
    """Replay the planner's pushdown pass; report provable emptiness."""
    findings: list[Diagnostic] = []
    closure = _EqualityClosure()
    range_candidates = []
    for comparison in query.comparisons:
        if comparison.is_ground:
            if not comparison.evaluate_ground():
                findings.append(Diagnostic(
                    "QA203",
                    ERROR,
                    f"ground comparison {comparison!r} is always false: "
                    "the query can never return a row",
                ))
            continue
        if closure.absorb(comparison):
            continue
        if comparison.op in _RANGE_OPS:
            range_candidates.append(comparison)
    if closure.contradiction:
        findings.append(Diagnostic(
            "QA201",
            ERROR,
            "equality comparisons force one variable to two different "
            "constants: the query can never return a row",
        ))
    intervals = _IntervalClosure(closure)
    for comparison in range_candidates:
        intervals.absorb(comparison)
    intervals.finalize()
    if not closure.contradiction and intervals.empty:
        findings.append(Diagnostic(
            "QA202",
            ERROR,
            "range comparisons close an empty interval: the query can "
            "never return a row",
        ))
    return findings, closure, intervals


def _shape_diagnostics(query: ConjunctiveQuery) -> list[Diagnostic]:
    """Syntactic lints: dangling atoms and single-use variables."""
    findings: list[Diagnostic] = []
    head_vars = set(query.head_variables())
    atom_vars = [set(atom.variables()) for atom in query.atoms]
    comparison_vars: set[Variable] = set()
    for comparison in query.comparisons:
        comparison_vars.update(comparison.variables())

    for index, variables in enumerate(atom_vars):
        if len(query.atoms) < 2:
            break  # a single atom is the whole query, not a dangler
        others: set[Variable] = set(head_vars) | comparison_vars
        for other_index, other_vars in enumerate(atom_vars):
            if other_index != index:
                others |= other_vars
        if not (variables & others):
            findings.append(Diagnostic(
                "QA103",
                WARNING,
                f"atom {query.atoms[index]!r} shares no variables with "
                "the head or the rest of the body: it only tests "
                "non-emptiness (and multiplies multiplicities)",
            ))

    occurrences: Counter = Counter()
    for atom in query.atoms:
        occurrences.update(atom.variables())
    for comparison in query.comparisons:
        occurrences.update(comparison.variables())
    for var, count in occurrences.items():
        if var.name.startswith("_"):
            continue  # conventional don't-care spelling
        if count == 1 and var not in head_vars and var not in query.parameters:
            findings.append(Diagnostic(
                "QA104",
                WARNING,
                f"variable {var!r} occurs exactly once and is not "
                "exported through the head: possibly a typo for another "
                "variable",
            ))
    return findings


def _statistics_diagnostics(
    query: ConjunctiveQuery,
    db: Database,
    virtual: Database | None,
) -> list[Diagnostic]:
    """QA105: comparisons that statistics show to be mixed-type risks.

    A comparison between a variable and a constant whose column (per the
    maintained statistics) is mixed-type, or holds values of a different
    comparability class than the constant, will raise
    :class:`~repro.errors.MixedTypeComparisonWarning` at run time and
    reject every affected row — legal, but usually a schema
    misunderstanding.
    """
    findings: list[Diagnostic] = []
    positions: dict[Variable, list[tuple[int, int]]] = {}
    for atom_index, atom in enumerate(query.atoms):
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                positions.setdefault(term, []).append((atom_index, position))
    stats_cache: dict[int, object] = {}

    def stats_for(atom_index: int):
        if atom_index not in stats_cache:
            try:
                stats_cache[atom_index] = relation_for(
                    query.atoms[atom_index], db, virtual
                )[0].stats
            except (QueryError, ReproError):
                stats_cache[atom_index] = None
        return stats_cache[atom_index]

    flagged: set[tuple] = set()
    for comparison in query.comparisons:
        if comparison.is_ground or comparison.op not in _RANGE_OPS:
            continue
        left, right = comparison.left, comparison.right
        if isinstance(left, Variable) and isinstance(right, Constant):
            var, const = left, right
        elif isinstance(right, Variable) and isinstance(left, Constant):
            var, const = right, left
        else:
            continue
        for atom_index, position in positions.get(var, ()):
            stats = stats_for(atom_index)
            if stats is None or stats.cardinality == 0:
                continue
            sample = stats.min_value(position)
            if sample is None and stats.histogram(position) is None:
                reason = (
                    f"column {position} of "
                    f"{query.atoms[atom_index].relation!r} mixes value "
                    "types that do not order against each other"
                )
            elif sample is not None and (
                _type_category(sample) != _type_category(const.value)
            ):
                reason = (
                    f"column {position} of "
                    f"{query.atoms[atom_index].relation!r} holds "
                    f"{_type_category(sample)} values but the comparison "
                    f"uses a {_type_category(const.value)} constant"
                )
            else:
                continue
            key = (comparison, atom_index, position)
            if key in flagged:
                continue
            flagged.add(key)
            findings.append(Diagnostic(
                "QA105",
                WARNING,
                f"comparison {comparison!r} risks mixed-type semantics: "
                f"{reason}; affected rows are rejected with a warning at "
                "run time",
            ))
            break
    return findings


def _plan_diagnostics(
    query: ConjunctiveQuery,
    db: Database,
    virtual: Database | None,
) -> list[Diagnostic]:
    """QA101: join steps that probe nothing (cartesian products)."""
    findings: list[Diagnostic] = []
    try:
        plan = plan_query(query, db, virtual)
    except QueryError:
        return findings
    if plan.empty:
        return findings
    for number, step in enumerate(plan.steps, start=1):
        if number == 1:
            continue
        if not step.lookup_positions and step.range_position is None:
            findings.append(Diagnostic(
                "QA101",
                WARNING,
                f"step {number} scans {step.atom!r} with no probe: the "
                "join degenerates to a cartesian product (est. "
                f"{step.estimated_bindings:.0f} bindings)",
                step=number,
            ))
    return findings


def analyze_query(
    query: ConjunctiveQuery,
    db: Database | None = None,
    virtual: Database | None = None,
) -> list[Diagnostic]:
    """Every finding for one conjunctive query, errors first.

    Without a database only the syntactic and closure-based checks run;
    with one, the statistics-backed lints (QA101 cartesian products,
    QA105 mixed-type risk) run too.
    """
    findings, __, __ = _closure_diagnostics(query)
    findings += _shape_diagnostics(query)
    if db is not None and not query.is_parameterized:
        findings += _statistics_diagnostics(query, db, virtual)
        if not has_errors(findings):
            findings += _plan_diagnostics(query, db, virtual)
    findings.sort(key=lambda d: (d.severity != ERROR, d.code))
    return findings


def analyze_union(
    union: UnionQuery,
    db: Database | None = None,
    virtual: Database | None = None,
) -> list[Diagnostic]:
    """Every finding for a union: per-disjunct plus union-level checks.

    Per-disjunct emptiness errors are *demoted* to QA110 warnings — a
    union with one dead disjunct still returns rows — unless every
    disjunct is provably empty, which is the union-level error QA204.
    """
    findings: list[Diagnostic] = []
    empty_disjuncts: list[int] = []
    for index, disjunct in enumerate(union.disjuncts):
        per_disjunct = analyze_query(disjunct, db, virtual)
        if has_errors(per_disjunct):
            empty_disjuncts.append(index)
        for diagnostic in per_disjunct:
            if diagnostic.severity == ERROR:
                findings.append(Diagnostic(
                    "QA110",
                    WARNING,
                    f"disjunct {index} never contributes "
                    f"({diagnostic.code}: {diagnostic.message})",
                    disjunct=index,
                ))
            else:
                findings.append(diagnostic.located(index))

    if len(empty_disjuncts) == len(union.disjuncts):
        findings.append(Diagnostic(
            "QA204",
            ERROR,
            "every disjunct of the union is provably empty: the query "
            "can never return a row",
        ))

    for index, disjunct in enumerate(union.disjuncts):
        if index in empty_disjuncts:
            continue
        for other_index, other in enumerate(union.disjuncts):
            if other_index == index or other_index in empty_disjuncts:
                continue
            if not is_contained_in(disjunct, other):
                continue
            if other_index < index or not is_contained_in(other, disjunct):
                findings.append(Diagnostic(
                    "QA102",
                    WARNING,
                    f"disjunct {index} is subsumed by disjunct "
                    f"{other_index}: it contributes nothing to the union "
                    "(see UnionQuery.minimized())",
                    disjunct=index,
                ))
                break
    findings.sort(key=lambda d: (d.severity != ERROR, d.code))
    return findings


def check_relations(
    query: ConjunctiveQuery | UnionQuery, schema: Schema
) -> None:
    """Raise :class:`~repro.errors.UnknownRelationError` where the
    database-backed analysis would: at the first atom over a relation
    ``schema`` lacks, in the first disjunct ``QA101`` plans (one that is
    unparameterized and not provably empty).  Citing may not raise it:
    the rewriter plans nothing for a query it proves empty by
    comparisons no ``QA2xx`` covers, such as ``X < Y, Y < X``."""
    disjuncts = query.disjuncts if isinstance(query, UnionQuery) else (query,)
    for disjunct in disjuncts:
        unknown = [
            atom.relation for atom in disjunct.atoms
            if atom.relation not in schema
        ]
        if unknown and not disjunct.is_parameterized and not has_errors(
            _closure_diagnostics(disjunct)[0]
        ):
            raise UnknownRelationError(unknown[0])


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line rendering used by EXPLAIN and the CLI."""
    if not diagnostics:
        return "no findings"
    return "\n".join(d.describe() for d in diagnostics)
