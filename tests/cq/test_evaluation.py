"""Tests for conjunctive-query evaluation."""

import pytest

from repro.cq.evaluation import (
    enumerate_bindings,
    evaluate_query,
    evaluate_with_bindings,
    reference_bindings,
)
from repro.cq.parser import parse_query
from repro.cq.terms import Variable
from repro.errors import QueryError
from repro.relational.database import Database, view_store
from repro.relational.schema import RelationSchema, Schema


def store(arity, rows):
    """A view store holding one view ``V`` of ``arity`` columns."""
    virtual = view_store({"V": arity})
    virtual.relation("V").insert_many(rows)
    return virtual


@pytest.fixture
def db():
    schema = Schema([
        RelationSchema("R", ["a", "b"]),
        RelationSchema("S", ["b", "c"]),
    ])
    database = Database(schema)
    database.insert_all("R", [(1, 10), (2, 20), (3, 10)])
    database.insert_all("S", [(10, 100), (20, 200), (10, 101)])
    return database


class TestBasicEvaluation:
    def test_single_atom(self, db):
        q = parse_query("Q(A) :- R(A, B)")
        assert evaluate_query(q, db) == [(1,), (2,), (3,)]

    def test_join(self, db):
        q = parse_query("Q(A, C) :- R(A, B), S(B, C)")
        assert set(evaluate_query(q, db)) == {
            (1, 100), (1, 101), (3, 100), (3, 101), (2, 200),
        }

    def test_set_semantics_dedupes(self, db):
        q = parse_query("Q(B) :- R(A, B)")
        assert evaluate_query(q, db) == [(10,), (20,)]

    def test_constant_in_atom(self, db):
        q = parse_query("Q(B) :- R(1, B)")
        assert evaluate_query(q, db) == [(10,)]

    def test_repeated_variable_in_atom(self, db):
        db.insert("R", 5, 5)
        q = parse_query("Q(A) :- R(A, A)")
        assert evaluate_query(q, db) == [(5,)]

    def test_constant_in_head(self, db):
        q = parse_query('Q(A, "tag") :- R(A, B), A = 1')
        assert evaluate_query(q, db) == [(1, "tag")]

    def test_empty_result(self, db):
        q = parse_query("Q(A) :- R(A, 999)")
        assert evaluate_query(q, db) == []

    def test_cartesian_product(self, db):
        q = parse_query("Q(A, C) :- R(A, B1), S(B2, C)")
        assert len(evaluate_query(q, db)) == 9


class TestComparisons:
    def test_equality_selection(self, db):
        q = parse_query("Q(A) :- R(A, B), B = 10")
        assert evaluate_query(q, db) == [(1,), (3,)]

    def test_inequality(self, db):
        q = parse_query("Q(A) :- R(A, B), B != 10")
        assert evaluate_query(q, db) == [(2,)]

    def test_range(self, db):
        q = parse_query("Q(A) :- R(A, B), A >= 2, A < 3")
        assert evaluate_query(q, db) == [(2,)]

    def test_variable_to_variable(self, db):
        q = parse_query("Q(A, C) :- R(A, B), S(B, C), A < C")
        assert (1, 100) in evaluate_query(q, db)

    def test_false_ground_comparison_empties_result(self, db):
        q = parse_query("Q(A) :- R(A, B), 1 = 2")
        assert evaluate_query(q, db) == []

    def test_true_ground_comparison_is_noop(self, db):
        q = parse_query("Q(A) :- R(A, B), 1 < 2")
        assert len(evaluate_query(q, db)) == 3

    def test_mixed_type_comparison_false(self, db):
        q = parse_query('Q(A) :- R(A, B), B < "zzz"')
        assert evaluate_query(q, db) == []


class TestParameters:
    def test_instantiated_evaluation(self, db):
        v = parse_query("lambda A. V(A, B) :- R(A, B)")
        assert evaluate_query(v, db, params=[1]) == [(1, 10)]

    def test_parameterized_without_values_rejected(self, db):
        v = parse_query("lambda A. V(A, B) :- R(A, B)")
        with pytest.raises(QueryError):
            list(enumerate_bindings(v, db))


class TestBindings:
    def test_bindings_cover_all_variables(self, db):
        q = parse_query("Q(A) :- R(A, B), S(B, C)")
        for binding in enumerate_bindings(q, db):
            assert set(binding) == {Variable("A"), Variable("B"),
                                    Variable("C")}

    def test_bindings_grouped_by_tuple(self, db):
        q = parse_query("Q(A) :- R(A, B), S(B, C)")
        grouped = evaluate_with_bindings(q, db)
        # A=1 joins S twice (10->100, 10->101): two bindings.
        assert len(grouped[(1,)]) == 2
        assert len(grouped[(2,)]) == 1

    def test_binding_count_is_derivation_count(self, db):
        q = parse_query("Q(C) :- R(A, B), S(B, C)")
        grouped = evaluate_with_bindings(q, db)
        # C=100 from A=1 and A=3: two bindings.
        assert len(grouped[(100,)]) == 2


class TestVirtualRelations:
    def test_virtual_relation_visible(self, db):
        q = parse_query("Q(X) :- V(X, Y)")
        virtual = store(2, [(1, "a"), (2, "b")])
        assert evaluate_query(q, db, virtual=virtual) == [(1,), (2,)]

    def test_virtual_joins_with_base(self, db):
        q = parse_query("Q(X, B) :- V(X), R(X, B)")
        virtual = store(1, [(1,), (99,)])
        assert evaluate_query(q, db, virtual=virtual) == [(1, 10)]

    def test_virtual_arity_mismatch_rejected(self, db):
        q = parse_query("Q(X) :- V(X, Y)")
        with pytest.raises(QueryError):
            evaluate_query(q, db, virtual=store(1, [(1,)]))

    @pytest.mark.parametrize("rows", [[], [(1, "a")]])
    def test_view_arity_comes_from_its_head(self, db, rows):
        # An empty view still has its head's arity: an atom of another
        # arity is an error whether the view holds rows or not.
        q = parse_query("Q(X) :- V(X, Y, Z)")
        virtual = store(2, rows)
        with pytest.raises(QueryError):
            evaluate_query(q, db, virtual=virtual)
        with pytest.raises(QueryError):
            list(reference_bindings(q, db, virtual))

    def test_atom_arity_mismatch_rejected(self, db):
        q = parse_query("Q(X) :- R(X)")
        with pytest.raises(QueryError):
            evaluate_query(q, db)


class TestSelfJoin:
    def test_same_relation_twice(self, db):
        q = parse_query("Q(A1, A2) :- R(A1, B), R(A2, B), A1 < A2")
        assert evaluate_query(q, db) == [(1, 3)]
