"""Containment and equivalence of conjunctive queries.

Classical result (Chandra & Merlin): for pure CQs, ``Q1 ⊆ Q2`` iff there is
a homomorphism from ``Q2`` to ``Q1`` mapping head to head.  With comparison
predicates the test becomes: a homomorphism ``h`` such that every comparison
of ``Q2`` is *entailed* (after applying ``h``) by the comparisons of ``Q1``.

Entailment is decided by :class:`ComparisonClosure`, a fixpoint closure over
``=, !=, <, <=`` facts (transitivity, equality merging, constant
evaluation).  The resulting containment test is **sound** (a ``True`` answer
is always correct) and complete for the equality-only fragment used by the
paper's examples; for dense-order corner cases involving inequalities it may
return ``False`` conservatively.  This is the standard trade-off.

λ-parameterized queries are compared by instantiating both sides with the
same fresh constants (parameters are positional, per Def 2.1).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Term, Variable
from repro.errors import ParameterError
from repro.relational.expressions import ComparisonOp

Homomorphism = dict[Variable, Term]


class ComparisonClosure:
    """Entailment closure of a set of comparison atoms.

    Maintains a union-find over terms for equalities and transitive
    ``<`` / ``<=`` / ``!=`` relations over class representatives, with
    constant comparisons folded in.  Exposes :attr:`satisfiable` and
    :meth:`entails`.

    A comparison against a NaN constant is decided as the evaluator
    decides it, and never enters the closure: NaN equals and orders
    against nothing, itself included, so ``!=`` always holds and every
    other comparison never does.
    """

    def __init__(self, comparisons: tuple[ComparisonAtom, ...] = ()) -> None:
        self._parent: dict[Term, Term] = {}
        self._lt: set[tuple[Term, Term]] = set()
        self._le: set[tuple[Term, Term]] = set()
        self._ne: set[frozenset[Term]] = set()
        self._atoms: tuple[ComparisonAtom, ...] = tuple(comparisons)
        self.satisfiable = True
        for comparison in comparisons:
            self.add(comparison)
        self._close()

    # -- union-find -----------------------------------------------------------

    def _find(self, term: Term) -> Term:
        root = term
        while root in self._parent:
            root = self._parent[root]
        # Path compression: repoint every node on the chain at the root.
        while term in self._parent and term != root:
            next_term = self._parent[term]
            self._parent[term] = root
            term = next_term
        return root

    def _union(self, left: Term, right: Term) -> None:
        left_root, right_root = self._find(left), self._find(right)
        if left_root == right_root:
            return
        # Prefer constants as class representatives.
        if isinstance(left_root, Constant) and isinstance(right_root, Constant):
            if left_root.value != right_root.value:
                self.satisfiable = False
            # Merge anyway to keep the structure consistent.
            self._parent[right_root] = left_root
        elif isinstance(left_root, Constant):
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root

    # -- construction ----------------------------------------------------------

    def add(self, comparison: ComparisonAtom) -> None:
        """Record one comparison fact (closure is recomputed lazily)."""
        left, op, right = comparison.left, comparison.op, comparison.right
        if _is_nan(left) or _is_nan(right):
            if op is not ComparisonOp.NE:
                self.satisfiable = False
            return
        if op is ComparisonOp.EQ:
            self._union(left, right)
        elif op is ComparisonOp.NE:
            self._ne.add(frozenset((left, right)))
        elif op is ComparisonOp.LT:
            self._lt.add((left, right))
        elif op is ComparisonOp.LE:
            self._le.add((left, right))
        elif op is ComparisonOp.GT:
            self._lt.add((right, left))
        elif op is ComparisonOp.GE:
            self._le.add((right, left))

    def _canonical_pairs(
        self, pairs: set[tuple[Term, Term]]
    ) -> set[tuple[Term, Term]]:
        return {(self._find(a), self._find(b)) for a, b in pairs}

    def _close(self) -> None:
        """Compute the transitive/equality closure to fixpoint."""
        changed = True
        while changed:
            changed = False
            lt = self._canonical_pairs(self._lt)
            le = self._canonical_pairs(self._le)
            ne = {frozenset(self._find(t) for t in pair) for pair in self._ne}

            # Constant-vs-constant facts derived from values.
            constants = {
                term for pair in itertools.chain(lt, le) for term in pair
                if isinstance(term, Constant)
            }
            constants.update(
                term for pair in ne for term in pair
                if isinstance(term, Constant)
            )
            for c1, c2 in itertools.combinations(sorted(
                    constants, key=repr), 2):
                fact = _constant_order(c1, c2)
                if fact == "lt" and (c1, c2) not in lt:
                    lt.add((c1, c2))
                elif fact == "gt" and (c2, c1) not in lt:
                    lt.add((c2, c1))
                if c1.value != c2.value:
                    ne.add(frozenset((c1, c2)))

            # Transitivity.
            new_lt = set(lt)
            new_le = set(le)
            for a, b in list(lt):
                for c, d in list(lt):
                    if b == c:
                        new_lt.add((a, d))
                for c, d in list(le):
                    if b == c:
                        new_lt.add((a, d))
            for a, b in list(le):
                for c, d in list(lt):
                    if b == c:
                        new_lt.add((a, d))
                for c, d in list(le):
                    if b == c:
                        new_le.add((a, d))

            # le both ways -> equality.
            for a, b in list(new_le):
                if a != b and (b, a) in new_le:
                    self._union(a, b)
                    changed = True

            # lt implies le and ne.
            for a, b in new_lt:
                new_le.add((a, b))
                if a != b:
                    ne.add(frozenset((a, b)))

            if new_lt != self._lt or new_le != self._le or ne != self._ne:
                changed = True
            self._lt, self._le, self._ne = new_lt, new_le, ne

        # Contradictions.
        for a, b in self._lt:
            if self._find(a) == self._find(b):
                self.satisfiable = False
        for pair in self._ne:
            if len({self._find(t) for t in pair}) == 1:
                self.satisfiable = False
        # A class whose representative chain merged two distinct constants
        # was already flagged in _union.

    # -- queries ---------------------------------------------------------------

    def equal(self, left: Term, right: Term) -> bool:
        """Are the two terms entailed equal?"""
        left_root, right_root = self._find(left), self._find(right)
        if left_root == right_root:
            return True
        if isinstance(left_root, Constant) and isinstance(right_root, Constant):
            return left_root.value == right_root.value
        return False

    def entails(self, comparison: ComparisonAtom) -> bool:
        """Is ``comparison`` a logical consequence of the closed facts?

        Fast paths first (ground evaluation, class equality, direct pair
        membership); otherwise decide by *refutation*: the comparison is
        entailed iff the facts plus its negation are unsatisfiable.  The
        contradiction detection only reports genuine contradictions, so
        the test is sound.  An unsatisfiable closure entails everything.
        """
        if not self.satisfiable:
            return True
        if _is_nan(comparison.left) or _is_nan(comparison.right):
            return comparison.op is ComparisonOp.NE
        left = self._find(comparison.left)
        right = self._find(comparison.right)
        op = comparison.op
        if isinstance(left, Constant) and isinstance(right, Constant):
            try:
                return op.function(left.value, right.value)
            except TypeError:
                return False
        if op is ComparisonOp.EQ and self.equal(left, right):
            return True
        if op is ComparisonOp.LT and (left, right) in self._lt:
            return True
        if op is ComparisonOp.GT and (right, left) in self._lt:
            return True
        if op is ComparisonOp.LE and (
                (left, right) in self._le or (left, right) in self._lt
                or self.equal(left, right)):
            return True
        if op is ComparisonOp.GE and (
                (right, left) in self._le or (right, left) in self._lt
                or self.equal(left, right)):
            return True
        if op is ComparisonOp.NE and (
                frozenset((left, right)) in self._ne
                or (left, right) in self._lt
                or (right, left) in self._lt):
            return True
        if op is ComparisonOp.EQ and (
                frozenset((left, right)) in self._ne
                or (left, right) in self._lt
                or (right, left) in self._lt):
            return False  # provably different: skip the refutation test
        # Refutation: entailed iff facts + negation are contradictory.
        negated = ComparisonAtom(
            comparison.left, op.negate(), comparison.right
        )
        refutation = ComparisonClosure(self._atoms + (negated,))
        return not refutation.satisfiable


def _is_nan(term: Term) -> bool:
    """Is ``term`` a constant that is not equal to itself (a NaN)?"""
    return isinstance(term, Constant) and term.value != term.value


def _constant_order(c1: Constant, c2: Constant) -> str | None:
    try:
        if c1.value < c2.value:
            return "lt"
        if c2.value < c1.value:
            return "gt"
    except TypeError:
        return None
    return None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize_query(query: ConjunctiveQuery) -> tuple[ConjunctiveQuery, bool]:
    """Propagate equalities and simplify; returns ``(query, satisfiable)``.

    - ``x = c`` substitutes the constant for the variable everywhere;
    - ``x = y`` unifies the variables (head/parameter variables are kept as
      the representative so the head shape survives);
    - ground comparisons are evaluated: true ones dropped, a false one makes
      the query unsatisfiable;
    - duplicate atoms/comparisons and trivial ``t = t`` are removed.
    """
    current = query
    protected = set(query.head_variables()) | set(query.parameters)
    while True:
        substitution: dict[Variable, Term] = {}
        for comparison in current.comparisons:
            if comparison.op is not ComparisonOp.EQ:
                continue
            left, right = comparison.left, comparison.right
            if isinstance(left, Variable) and isinstance(right, Constant):
                if left not in protected:
                    substitution[left] = right
            elif isinstance(right, Variable) and isinstance(left, Constant):
                if right not in protected:
                    substitution[right] = left
            elif isinstance(left, Variable) and isinstance(right, Variable):
                if left == right:
                    continue
                if left not in protected:
                    substitution[left] = right
                elif right not in protected:
                    substitution[right] = left
                # Both protected: keep the comparison as-is.
        if not substitution:
            break
        current = current.substitute(substitution)

    satisfiable = True
    comparisons: dict[ComparisonAtom, None] = {}
    for comparison in current.comparisons:
        if comparison.is_ground:
            if not comparison.evaluate_ground():
                satisfiable = False
            continue
        if (comparison.op is ComparisonOp.EQ
                and comparison.left == comparison.right):
            continue
        comparisons.setdefault(comparison.normalized())
    atoms = list(dict.fromkeys(current.atoms))
    normalized = ConjunctiveQuery(
        current.name, current.head, atoms, list(comparisons),
        current.parameters,
    )
    if satisfiable:
        closure = ComparisonClosure(normalized.comparisons)
        satisfiable = closure.satisfiable
    return normalized, satisfiable


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


def _extend(
    mapping: Homomorphism,
    source_term: Term,
    target_term: Term,
    closure: ComparisonClosure,
) -> Homomorphism | None:
    """Try to extend ``mapping`` with ``source_term -> target_term``."""
    if isinstance(source_term, Constant):
        if isinstance(target_term, Constant):
            return mapping if source_term.value == target_term.value else None
        # A source constant may map onto a target variable only if the
        # target's comparisons pin that variable to the same constant.
        if closure.equal(target_term, source_term):
            return mapping
        return None
    existing = mapping.get(source_term)
    if existing is not None:
        if existing == target_term or closure.equal(existing, target_term):
            return mapping
        return None
    extended = dict(mapping)
    extended[source_term] = target_term
    return extended


def find_homomorphism(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    require_head: bool = True,
    seed: Mapping[Variable, Term] | None = None,
) -> Homomorphism | None:
    """Find a homomorphism from ``source`` into ``target``.

    A homomorphism maps each variable of ``source`` to a term of ``target``
    such that every relational atom of ``source`` lands on a relational atom
    of ``target``, every comparison of ``source`` is entailed by ``target``'s
    comparison closure, and (if ``require_head``) the head maps onto the
    head positionally.

    ``seed`` optionally pre-binds some variables (used for λ-parameter
    alignment).
    """
    closure = ComparisonClosure(target.comparisons)

    mapping: Homomorphism = dict(seed) if seed else {}
    if require_head:
        if len(source.head) != len(target.head):
            return None
        for source_term, target_term in zip(source.head, target.head):
            extended = _extend(mapping, source_term, target_term, closure)
            if extended is None:
                return None
            mapping = extended

    # Index target atoms by relation for candidate generation.
    by_relation: dict[str, list[RelationalAtom]] = {}
    for atom in target.atoms:
        by_relation.setdefault(atom.relation, []).append(atom)

    source_atoms = list(source.atoms)

    def atom_constrainedness(atom: RelationalAtom, bound: set[Variable]) -> int:
        return sum(1 for v in atom.variables() if v in bound) + len(
            atom.constants()
        )

    def search(
        remaining: list[RelationalAtom], mapping: Homomorphism
    ) -> Homomorphism | None:
        if not remaining:
            for comparison in source.comparisons:
                mapped = comparison.substitute(mapping)
                if mapped.is_ground:
                    if not mapped.evaluate_ground():
                        return None
                elif not closure.entails(mapped):
                    return None
            return mapping
        bound = set(mapping)
        # Most-constrained-first ordering.
        atom = max(remaining, key=lambda a: atom_constrainedness(a, bound))
        rest = [a for a in remaining if a is not atom]
        for candidate in by_relation.get(atom.relation, ()):
            if candidate.arity != atom.arity:
                continue
            extended: Homomorphism | None = mapping
            for source_term, target_term in zip(atom.terms, candidate.terms):
                extended = _extend(extended, source_term, target_term, closure)
                if extended is None:
                    break
            if extended is None:
                continue
            result = search(rest, extended)
            if result is not None:
                return result
        return None

    return search(source_atoms, mapping)


# ---------------------------------------------------------------------------
# Containment and equivalence
# ---------------------------------------------------------------------------


def _freeze_parameters(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """Instantiate both queries' λ-parameters with shared fresh constants.

    Parameters are positional (Def 2.1): the i-th parameter of one query
    corresponds to the i-th of the other.  Queries with different parameter
    counts are incomparable.
    """
    if len(q1.parameters) != len(q2.parameters):
        raise ParameterError(
            "cannot compare queries with different λ-parameter counts: "
            f"{len(q1.parameters)} vs {len(q2.parameters)}"
        )
    if not q1.parameters:
        return q1, q2
    fresh = [f"\x00param{i}\x00" for i in range(len(q1.parameters))]
    return q1.instantiate(fresh), q2.instantiate(fresh)


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Is ``Q1 ⊆ Q2`` on every database instance?

    Sound; complete for the equality-constant fragment (see module docs).
    """
    if len(q1.head) != len(q2.head):
        return False
    q1, q2 = _freeze_parameters(q1, q2)
    q1_norm, q1_sat = normalize_query(q1)
    if not q1_sat:
        return True  # the empty query is contained in everything
    q2_norm, q2_sat = normalize_query(q2)
    if not q2_sat:
        return False
    return find_homomorphism(q2_norm, q1_norm) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Are the two queries equivalent (mutual containment)?"""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)
