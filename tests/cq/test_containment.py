"""Tests for containment, equivalence, and the comparison closure."""

import contextlib
import signal

import pytest

from repro.cq.atoms import ComparisonAtom
from repro.cq.containment import (
    ComparisonClosure,
    are_equivalent,
    find_homomorphism,
    is_contained_in,
    normalize_query,
)
from repro.cq.evaluation import reference_bindings
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.errors import ParameterError
from repro.relational.database import Database
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema


def comp(left, op, right):
    return ComparisonAtom(left, ComparisonOp.parse(op), right)


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestComparisonClosure:
    def test_equality_via_union(self):
        closure = ComparisonClosure((comp(X, "=", Y),))
        assert closure.entails(comp(Y, "=", X))

    def test_equality_with_constant(self):
        closure = ComparisonClosure((comp(X, "=", Constant(3)),))
        assert closure.entails(comp(X, "=", Constant(3)))
        assert closure.entails(comp(X, "!=", Constant(4)))
        assert closure.entails(comp(X, "<", Constant(5)))

    def test_transitivity_of_lt(self):
        closure = ComparisonClosure((comp(X, "<", Y), comp(Y, "<", Z)))
        assert closure.entails(comp(X, "<", Z))
        assert closure.entails(comp(X, "<=", Z))
        assert closure.entails(comp(X, "!=", Z))

    def test_le_lt_mix(self):
        closure = ComparisonClosure((comp(X, "<=", Y), comp(Y, "<", Z)))
        assert closure.entails(comp(X, "<", Z))

    def test_le_both_ways_gives_equality(self):
        closure = ComparisonClosure((comp(X, "<=", Y), comp(Y, "<=", X)))
        assert closure.entails(comp(X, "=", Y))

    def test_transitivity_through_constants(self):
        closure = ComparisonClosure((
            comp(X, "<=", Constant(5)), comp(Constant(5), "<", Y),
        ))
        assert closure.entails(comp(X, "<", Y))

    def test_unsat_lt_self(self):
        closure = ComparisonClosure((comp(X, "<", Y), comp(Y, "<", X)))
        assert not closure.satisfiable

    def test_unsat_conflicting_constants(self):
        closure = ComparisonClosure((
            comp(X, "=", Constant(1)), comp(X, "=", Constant(2)),
        ))
        assert not closure.satisfiable

    def test_unsat_ne_self(self):
        closure = ComparisonClosure((comp(X, "=", Y), comp(X, "!=", Y)))
        assert not closure.satisfiable

    def test_unsat_entails_everything(self):
        closure = ComparisonClosure((comp(X, "<", X),))
        assert closure.entails(comp(Y, "=", Z))

    def test_ge_gt_orientation(self):
        closure = ComparisonClosure((comp(X, ">", Y),))
        assert closure.entails(comp(Y, "<", X))
        assert closure.entails(comp(X, ">=", Y))

    def test_no_spurious_entailment(self):
        closure = ComparisonClosure((comp(X, "<=", Y),))
        assert not closure.entails(comp(X, "<", Y))
        assert not closure.entails(comp(X, "=", Y))

    def test_ground_entailment(self):
        closure = ComparisonClosure(())
        assert closure.entails(comp(Constant(1), "<", Constant(2)))
        assert not closure.entails(comp(Constant(2), "<", Constant(1)))

    def test_union_find_chain_terminates(self):
        # Regression: path compression once self-looped on the root and
        # hung forever on equality chains ending in a constant.
        closure = ComparisonClosure((
            comp(X, "=", Y), comp(Y, "=", Z), comp(Z, "=", Constant(1)),
        ))
        assert closure.entails(comp(X, "=", Constant(1)))
        assert closure.entails(comp(X, "=", Z))
        # Repeated finds after compression must also terminate.
        for __ in range(3):
            assert closure.equal(X, Constant(1))

    def test_long_equality_chain(self):
        variables = [Variable(f"V{i}") for i in range(20)]
        chain = tuple(
            comp(variables[i], "=", variables[i + 1])
            for i in range(len(variables) - 1)
        )
        closure = ComparisonClosure(chain)
        assert closure.entails(comp(variables[0], "=", variables[-1]))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNaNConstants:
    """A comparison against NaN is decided as the evaluator decides it:
    NaN equals and orders against nothing, itself included, so ``!=``
    always holds and every other comparison never does."""

    X4 = Variable("X4")

    @staticmethod
    def nan():
        return Constant(float("nan"))

    @staticmethod
    def database():
        db = Database(Schema([RelationSchema("T", ["a", "b", "c"])]))
        db.insert_all("T", [(2, 3, 3), (float("nan"), 3, 3), ("a", 3, 3)])
        return db

    def query(self, *comparisons):
        atoms = parse_query("Q(X4) :- T(X4, 3, 3)").atoms
        return ConjunctiveQuery("Q", (self.X4,), atoms, list(comparisons))

    def test_drawn_query_that_hung_is_unsatisfiable(self):
        x4 = self.X4
        query = self.query(
            comp(x4, ">=", x4), comp(Constant(0), "<=", x4),
            comp(x4, "<", Constant("a")), comp(x4, "=", self.nan()),
            comp(x4, "=", self.nan()), comp(Constant(2), "=", x4),
        )
        with deadline(5):
            __, satisfiable = normalize_query(query)
        assert not satisfiable
        assert list(reference_bindings(query, self.database())) == []

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_only_not_equal_is_satisfiable(self, op, flipped):
        comparison = (comp(self.nan(), op, self.X4) if flipped
                      else comp(self.X4, op, self.nan()))
        query = self.query(comparison)
        with deadline(5):
            __, satisfiable = normalize_query(query)
        assert satisfiable == (op == "!=")
        rows = list(reference_bindings(query, self.database()))
        assert bool(rows) == satisfiable

    def test_entailment(self):
        closure = ComparisonClosure((comp(X, "<", Constant(3)),))
        assert closure.entails(comp(X, "!=", self.nan()))
        for op in ("=", "<", "<=", ">", ">="):
            assert not closure.entails(comp(X, op, self.nan()))
        assert ComparisonClosure((comp(X, "=", self.nan()),)).entails(
            comp(X, ">", Constant(3))
        )


class TestNormalizeQuery:
    def test_constant_propagation(self):
        q = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        normalized, satisfiable = normalize_query(q)
        assert satisfiable
        assert normalized.comparisons == ()
        assert Constant("gpcr") in normalized.atoms[0].terms

    def test_head_variables_protected(self):
        q = parse_query('Q(Ty) :- Family(F, N, Ty), Ty = "gpcr"')
        normalized, __ = normalize_query(q)
        # Head var survives; the comparison is kept.
        assert normalized.head == (Variable("Ty"),)
        assert len(normalized.comparisons) == 1

    def test_variable_unification(self):
        q = parse_query("Q(A) :- R(A, B), S(C), B = C")
        normalized, __ = normalize_query(q)
        assert normalized.comparisons == ()
        assert normalized.atoms[0].terms[1] == normalized.atoms[1].terms[0]

    def test_false_ground_comparison_unsat(self):
        q = parse_query("Q(A) :- R(A), 1 = 2")
        __, satisfiable = normalize_query(q)
        assert not satisfiable

    def test_contradictory_comparisons_unsat(self):
        q = parse_query("Q(A) :- R(A, B), B < 3, B > 5")
        __, satisfiable = normalize_query(q)
        assert not satisfiable

    def test_duplicate_atoms_removed(self):
        q = parse_query("Q(A) :- R(A), R(A)")
        normalized, __ = normalize_query(q)
        assert len(normalized.atoms) == 1

    def test_trivial_comparison_removed(self):
        q = parse_query("Q(A) :- R(A, B), B = B")
        normalized, __ = normalize_query(q)
        assert normalized.comparisons == ()


class TestHomomorphism:
    def test_identity(self):
        q = parse_query("Q(A) :- R(A, B)")
        assert find_homomorphism(q, q) is not None

    def test_collapse(self):
        source = parse_query("Q(A) :- R(A, B), R(A, C)")
        target = parse_query("Q(A) :- R(A, B)")
        hom = find_homomorphism(source, target)
        assert hom is not None
        assert hom[Variable("B")] == hom[Variable("C")]

    def test_head_constraint(self):
        source = parse_query("Q(A, B) :- R(A, B)")
        target = parse_query("Q(A, A) :- R(A, A)")
        assert find_homomorphism(source, target) is not None
        assert find_homomorphism(target, source) is None

    def test_comparison_entailment_required(self):
        source = parse_query("Q(A) :- R(A, B), B > 3")
        target = parse_query("Q(A) :- R(A, B), B > 5")
        assert find_homomorphism(source, target) is not None
        assert find_homomorphism(target, source) is None


class TestContainment:
    def test_more_selective_contained(self):
        qa = parse_query('Q(X) :- Family(X, N, Ty), Ty = "gpcr"')
        qb = parse_query("Q(X) :- Family(X, N, Ty)")
        assert is_contained_in(qa, qb)
        assert not is_contained_in(qb, qa)

    def test_extra_join_contained(self):
        qa = parse_query("Q(X) :- R(X, Y), S(Y, Z)")
        qb = parse_query("Q(X) :- R(X, Y)")
        assert is_contained_in(qa, qb)
        assert not is_contained_in(qb, qa)

    def test_unsatisfiable_contained_in_everything(self):
        qa = parse_query("Q(X) :- R(X), 1 = 2")
        qb = parse_query("Q(X) :- S(X)")
        assert is_contained_in(qa, qb)
        assert not is_contained_in(qb, qa)

    def test_arity_mismatch_not_contained(self):
        qa = parse_query("Q(X) :- R(X, Y)")
        qb = parse_query("Q(X, Y) :- R(X, Y)")
        assert not is_contained_in(qa, qb)

    def test_different_constants_incomparable(self):
        qa = parse_query('Q(X) :- R(X, "a")')
        qb = parse_query('Q(X) :- R(X, "b")')
        assert not is_contained_in(qa, qb)
        assert not is_contained_in(qb, qa)

    def test_range_containment(self):
        qa = parse_query("Q(X) :- R(X, Y), Y > 5")
        qb = parse_query("Q(X) :- R(X, Y), Y > 3")
        assert is_contained_in(qa, qb)
        assert not is_contained_in(qb, qa)


class TestEquivalence:
    def test_reordered_atoms(self):
        q1 = parse_query("Q(A) :- R(A, B), S(B)")
        q2 = parse_query("Q(A) :- S(B), R(A, B)")
        assert are_equivalent(q1, q2)

    def test_renamed_variables(self):
        q1 = parse_query("Q(A) :- R(A, B)")
        q2 = parse_query("Q(X) :- R(X, Y)")
        assert are_equivalent(q1, q2)

    def test_redundant_atom(self):
        q1 = parse_query("Q(A) :- R(A, B)")
        q2 = parse_query("Q(A) :- R(A, B), R(A, C)")
        assert are_equivalent(q1, q2)

    def test_inline_constant_vs_comparison(self):
        q1 = parse_query('Q(N) :- Family(F, N, "gpcr")')
        q2 = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        assert are_equivalent(q1, q2)

    def test_non_equivalent(self):
        q1 = parse_query("Q(A) :- R(A, B), S(B)")
        q2 = parse_query("Q(A) :- R(A, B)")
        assert not are_equivalent(q1, q2)


class TestParameterizedComparison:
    def test_same_parameter_positions_align(self):
        v1 = parse_query("lambda F. V(F, N) :- Family(F, N, Ty)")
        v2 = parse_query("lambda G. W(G, M) :- Family(G, M, T2)")
        assert is_contained_in(v1, v2)
        assert is_contained_in(v2, v1)

    def test_parameter_count_mismatch_raises(self):
        v1 = parse_query("lambda F. V(F, N) :- Family(F, N, Ty)")
        v2 = parse_query("W(G, M) :- Family(G, M, T2)")
        with pytest.raises(ParameterError):
            is_contained_in(v1, v2)

    def test_parameterized_more_selective(self):
        # λF pins the family: instantiated V1 ⊆ unparameterized V3.
        v1 = parse_query("lambda F. V(F, N, Ty) :- Family(F, N, Ty)")
        v3 = parse_query("W(F, N, Ty) :- Family(F, N, Ty)")
        assert is_contained_in(v1.instantiate(["11"]),  v3)
