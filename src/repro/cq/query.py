"""Conjunctive queries with λ-parameters (paper, Definition 2.1).

A :class:`ConjunctiveQuery` is the common representation for

- user queries (``Q(N) :- Family(F,N,Ty), Ty = "gpcr"``),
- view definitions (``λF. V1(F,N,Ty) :- Family(F,N,Ty)``),
- citation queries (``λF. CV1(F,N,Pn) :- Family(...), FC(...), Person(...)``),
- rewritings (bodies may reference view names as relational atoms).

The λ-parameters (``parameters``) are the paper's ``X = [x1..xn]``: an
ordered sequence of variables.  For each valuation of the parameters the
query denotes a different instance; :meth:`instantiate` applies a valuation
by substituting constants for the parameters.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.cq.atoms import ComparisonAtom, RelationalAtom, Substitution
from repro.cq.terms import Constant, Term, Variable, as_term
from repro.errors import ParameterError, QueryError, UnsafeQueryError
from repro.util.naming import NameSupply


class ConjunctiveQuery:
    """An immutable conjunctive query.

    Parameters
    ----------
    name:
        Head predicate name (``Q``, ``V1``, ``CV1``, ...).
    head:
        Ordered head terms (variables or constants).
    atoms:
        Relational atoms of the body.
    comparisons:
        Comparison predicates of the body.
    parameters:
        λ-parameters; an ordered sequence of distinct body variables.
    """

    __slots__ = ("name", "head", "atoms", "comparisons", "parameters", "_hash")

    def __init__(
        self,
        name: str,
        head: Sequence[Term],
        atoms: Sequence[RelationalAtom],
        comparisons: Sequence[ComparisonAtom] = (),
        parameters: Sequence[Variable] = (),
    ) -> None:
        self.name = name
        self.head: tuple[Term, ...] = tuple(head)
        self.atoms: tuple[RelationalAtom, ...] = tuple(atoms)
        self.comparisons: tuple[ComparisonAtom, ...] = tuple(comparisons)
        self.parameters: tuple[Variable, ...] = tuple(parameters)
        if self.parameters:
            if len(set(self.parameters)) != len(self.parameters):
                raise ParameterError(f"duplicate λ-parameters in {name}")
            body_vars = set(self.body_variables())
            for param in self.parameters:
                if param not in body_vars:
                    raise ParameterError(
                        f"λ-parameter {param!r} does not occur in the body "
                        f"of {name}"
                    )
        self._hash = hash(
            (self.name, self.head, self.atoms, frozenset(self.comparisons),
             self.parameters)
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Arity of the head."""
        return len(self.head)

    @property
    def is_parameterized(self) -> bool:
        """True when the query has a λ-term (paper, Def 2.1)."""
        return bool(self.parameters)

    def head_variables(self) -> list[Variable]:
        """Head variables in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for term in self.head:
            if isinstance(term, Variable):
                seen.setdefault(term)
        return list(seen)

    def body_variables(self) -> list[Variable]:
        """All variables occurring in relational or comparison atoms."""
        seen: dict[Variable, None] = {}
        for atom in self.atoms:
            for var in atom.variables():
                seen.setdefault(var)
        for comparison in self.comparisons:
            for var in comparison.variables():
                seen.setdefault(var)
        return list(seen)

    def variables(self) -> list[Variable]:
        """All variables of the query (head first, then body)."""
        seen: dict[Variable, None] = {}
        for var in self.head_variables():
            seen.setdefault(var)
        for var in self.body_variables():
            seen.setdefault(var)
        return list(seen)

    def relational_variables(self) -> set[Variable]:
        """Variables occurring in at least one relational atom."""
        result: set[Variable] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return result

    def relation_names(self) -> list[str]:
        """Distinct relation names used in the body, in order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.relation)
        return list(seen)

    def existential_variables(self) -> list[Variable]:
        """Body variables not exported through the head or λ-parameters."""
        exported = set(self.head_variables()) | set(self.parameters)
        return [v for v in self.body_variables() if v not in exported]

    def constants(self) -> list[Constant]:
        """All constants in head, atoms and comparisons."""
        seen: dict[Constant, None] = {}
        for term in self.head:
            if isinstance(term, Constant):
                seen.setdefault(term)
        for atom in self.atoms:
            for const in atom.constants():
                seen.setdefault(const)
        for comparison in self.comparisons:
            for side in (comparison.left, comparison.right):
                if isinstance(side, Constant):
                    seen.setdefault(side)
        return list(seen)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_safety(self) -> None:
        """Raise :class:`UnsafeQueryError` unless the query is safe.

        Safety: every head variable, λ-parameter and comparison variable
        must occur in some relational atom.
        """
        anchored = self.relational_variables()
        for var in self.head_variables():
            if var not in anchored:
                raise UnsafeQueryError(
                    f"head variable {var!r} of {self.name} not bound by any "
                    "relational atom"
                )
        for var in self.parameters:
            if var not in anchored:
                raise UnsafeQueryError(
                    f"λ-parameter {var!r} of {self.name} not bound by any "
                    "relational atom"
                )
        for comparison in self.comparisons:
            for var in comparison.variables():
                if var not in anchored:
                    raise UnsafeQueryError(
                        f"comparison variable {var!r} of {self.name} not bound "
                        "by any relational atom"
                    )

    def validate_against(self, schema: Any) -> None:
        """Check every base atom's arity against a relational schema.

        Atoms over names not in the schema are skipped (they may denote
        views; the registry validates those separately).
        """
        for atom in self.atoms:
            if atom.relation in schema:
                expected = schema.relation(atom.relation).arity
                if atom.arity != expected:
                    raise QueryError(
                        f"atom {atom!r} has arity {atom.arity}, schema says "
                        f"{expected}"
                    )

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def substitute(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to head, body, and parameters.

        Parameters that are substituted by constants are dropped from the
        parameter list (they are no longer free); parameters renamed to
        other variables follow the renaming.
        """
        new_parameters = []
        for param in self.parameters:
            image = substitution.get(param, param)
            if isinstance(image, Variable):
                new_parameters.append(image)
        return ConjunctiveQuery(
            self.name,
            [t if isinstance(t, Constant) else substitution.get(t, t)
             for t in self.head],
            [atom.substitute(substitution) for atom in self.atoms],
            [comparison.substitute(substitution)
             for comparison in self.comparisons],
            new_parameters,
        )

    def instantiate(self, values: Sequence[Any]) -> "ConjunctiveQuery":
        """Apply a λ-valuation: substitute constants for the parameters.

        The paper writes ``V(Y)(a1, ..., an)`` for the instantiation of a
        view with parameter values ``a1..an``; this method implements that
        application.
        """
        if len(values) != len(self.parameters):
            raise ParameterError(
                f"{self.name} takes {len(self.parameters)} parameter(s), "
                f"got {len(values)}"
            )
        substitution = {
            param: as_term(value)
            for param, value in zip(self.parameters, values)
        }
        return self.substitute(substitution)

    def rename_apart(
        self, avoid: Iterable[str], supply: NameSupply | None = None
    ) -> tuple["ConjunctiveQuery", dict[Variable, Variable]]:
        """Rename all variables away from ``avoid``.

        Returns the renamed query and the applied renaming.  Used when
        expanding views inside rewritings so existential view variables
        never capture query variables.
        """
        if supply is None:
            supply = NameSupply(avoid)
        else:
            supply.reserve(avoid)
        renaming: dict[Variable, Variable] = {}
        for var in self.variables():
            renaming[var] = Variable(supply.fresh(hint=var.name))
        return self.substitute(renaming), renaming

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """Copy with a different head predicate name."""
        return ConjunctiveQuery(
            name, self.head, self.atoms, self.comparisons, self.parameters
        )

    def with_parameters(self, parameters: Sequence[Variable]) -> "ConjunctiveQuery":
        """Copy with a different λ-parameter list."""
        return ConjunctiveQuery(
            self.name, self.head, self.atoms, self.comparisons, parameters
        )

    def drop_atom(self, index: int) -> "ConjunctiveQuery":
        """Copy without the ``index``-th relational atom (for minimization)."""
        atoms = self.atoms[:index] + self.atoms[index + 1:]
        return ConjunctiveQuery(
            self.name, self.head, atoms, self.comparisons, self.parameters
        )

    def drop_comparison(self, index: int) -> "ConjunctiveQuery":
        """Copy without the ``index``-th comparison atom."""
        comparisons = self.comparisons[:index] + self.comparisons[index + 1:]
        return ConjunctiveQuery(
            self.name, self.head, self.atoms, comparisons, self.parameters
        )

    # ------------------------------------------------------------------
    # value semantics & display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural (syntactic) equality.

        Comparison atoms are compared as sets; for equality *modulo variable
        renaming* use :func:`repro.cq.containment.are_equivalent`.
        """
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.name == other.name
            and self.head == other.head
            and self.atoms == other.atoms
            and frozenset(self.comparisons) == frozenset(other.comparisons)
            and self.parameters == other.parameters
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head_terms = ", ".join(repr(t) for t in self.head)
        body_parts = [repr(atom) for atom in self.atoms]
        body_parts.extend(repr(c) for c in self.comparisons)
        body = ", ".join(body_parts)
        prefix = ""
        if self.parameters:
            params = ", ".join(p.name for p in self.parameters)
            prefix = f"lambda {params}. "
        return f"{prefix}{self.name}({head_terms}) :- {body}"

    def signature(self) -> tuple:
        """A renaming-invariant fingerprint for fast grouping of queries.

        Two queries equal up to variable renaming have equal signatures
        (the converse need not hold); used to bucket candidate rewritings
        before running the exact equivalence check.
        """
        relation_counts = tuple(
            sorted((atom.relation, atom.arity) for atom in self.atoms)
        )
        comparison_ops = tuple(sorted(str(c.op) for c in self.comparisons))
        constants = tuple(sorted(repr(c) for c in self.constants()))
        return (len(self.head), relation_counts, comparison_ops, constants)
