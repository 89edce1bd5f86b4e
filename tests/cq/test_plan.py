"""Tests for the cost-based planner (repro.cq.plan) and the executor."""

import warnings
from collections import Counter

import pytest

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.canonical import canonical_key, canonicalize
from repro.cq.evaluation import enumerate_bindings, reference_bindings
from repro.cq.executor import execute_plan
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner, plan_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.errors import MixedTypeComparisonWarning, QueryError
from repro.relational.database import Database, view_store
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema


def _multiset(bindings):
    return Counter(
        tuple(sorted((var.name, value) for var, value in b.items()))
        for b in bindings
    )


@pytest.fixture
def skewed_db():
    """Big(a, b) is 200 rows; Small(b, c) is 2 rows."""
    schema = Schema([
        RelationSchema("Big", ["a", "b"]),
        RelationSchema("Small", ["b", "c"]),
    ])
    db = Database(schema)
    db.insert_all("Big", [(i, i % 50) for i in range(200)])
    db.insert_all("Small", [(1, 100), (2, 200)])
    return db


class TestCostModel:
    def test_small_relation_joined_first(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, skewed_db)
        assert [step.atom.relation for step in plan.steps] == \
            ["Small", "Big"]

    def test_first_step_estimate_is_cardinality(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, skewed_db)
        assert plan.steps[0].estimated_matches == 2.0

    def test_join_step_uses_average_fanout(self, skewed_db):
        # Big has 200 rows over 50 distinct b-values: 4 rows per probe.
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, skewed_db)
        assert plan.steps[1].estimated_matches == pytest.approx(4.0)

    def test_constant_selectivity_is_exact(self, skewed_db):
        q = parse_query("Q(B) :- Big(7, B)")
        plan = plan_query(q, skewed_db)
        # Exactly one row has a = 7.
        assert plan.steps[0].estimated_matches == pytest.approx(1.0)

    def test_empty_relation_ordered_first_and_zero_bindings(self):
        schema = Schema([
            RelationSchema("Big", ["a", "b"]),
            RelationSchema("Empty", ["b", "c"]),
        ])
        db = Database(schema)
        db.insert_all("Big", [(i, i) for i in range(50)])
        q = parse_query("Q(A, C) :- Big(A, B), Empty(B, C)")
        plan = plan_query(q, db)
        assert plan.steps[0].atom.relation == "Empty"
        assert plan.estimated_bindings == 0.0

    def test_cross_product_ordered_small_first(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B1), Small(B2, C)")
        plan = plan_query(q, skewed_db)
        assert plan.steps[0].atom.relation == "Small"


class TestAccessPaths:
    def test_bound_positions_become_index_lookup(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, skewed_db)
        join = plan.steps[1]
        assert join.lookup_positions == (1,)
        assert join.lookup_terms == (Variable("B"),)

    def test_repeated_new_variable_checked_residually(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, A)")
        plan = plan_query(q, skewed_db)
        assert plan.steps[0].equal_positions == ((0, 1),)
        assert plan.steps[0].introduces == ((Variable("A"), 0),)

    def test_comparisons_scheduled_at_binding_step(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), A < C")
        plan = plan_query(q, skewed_db)
        # A < C is only checkable once both atoms have fired.
        assert not plan.steps[0].comparisons
        assert len(plan.steps[1].comparisons) == 1


class TestComparisonPushdown:
    def test_constant_equality_becomes_bound_position(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B = 7")
        plan = plan_query(q, skewed_db)
        step = plan.steps[0]
        assert step.lookup_positions == (1,)
        assert step.lookup_terms == (Constant(7),)
        assert step.comparisons == ()
        assert plan.pushed == (ComparisonAtom(
            Variable("B"), ComparisonOp.EQ, Constant(7)
        ),)

    def test_pushed_variable_still_appears_in_bindings(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B = 7")
        bindings = list(enumerate_bindings(q, skewed_db))
        assert bindings and all(b[Variable("B")] == 7 for b in bindings)
        assert _multiset(bindings) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_transitive_constant_reaches_every_class_member(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(D, C), B = D, D = 1")
        plan = plan_query(q, skewed_db)
        for step in plan.steps:
            assert step.lookup_positions == (0 if
                                             step.atom.relation == "Small"
                                             else 1,)
            assert step.lookup_terms == (Constant(1),)
        # Both equalities are folded into the probes; only the var-var
        # link keeps its residual re-check (NaN-safe == semantics).
        assert len(plan.pushed) == 2
        residual = [c for step in plan.steps for c in step.comparisons]
        assert [repr(c) for c in residual] == ["B = D"]
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_variable_equality_probes_with_bound_member(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(D, C), B = D")
        plan = plan_query(q, skewed_db)
        # Small (2 rows) goes first and binds D; Big probes with it.  The
        # equality is still re-checked residually (probe matching is
        # identity-or-equality; only == preserves NaN semantics).
        assert plan.steps[0].atom.relation == "Small"
        big = plan.steps[1]
        assert big.lookup_positions == (1,)
        assert big.lookup_terms == (Variable("D"),)
        assert len(big.comparisons) == 1
        assert plan.pushed
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_class_mates_met_in_one_atom_check_same_row(self, skewed_db):
        q = parse_query("Q(A, B) :- Big(A, B), A = B")
        plan = plan_query(q, skewed_db)
        step = plan.steps[0]
        assert step.equal_positions == ((0, 1),)
        assert set(step.introduces) == {(Variable("A"), 0),
                                        (Variable("B"), 1)}
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_nan_constant_equality_stays_residual(self, skewed_db):
        # Probing a hash index with NaN could match rows by object
        # identity; == never does, so the comparison must not be pushed.
        nan = float("nan")
        skewed_db.insert("Big", 999, nan)
        b = Variable("B")
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), b])],
            [ComparisonAtom(b, ComparisonOp.EQ, Constant(nan))],
        )
        plan = plan_query(q, skewed_db)
        assert plan.pushed == ()
        assert list(enumerate_bindings(q, skewed_db)) == []
        assert list(reference_bindings(q, skewed_db)) == []

    def test_nan_bound_probe_value_matches_nothing(self):
        """Regression: a duplicated atom re-probes the hash index with an
        already-bound NaN value, which a dict bucket matches by object
        identity — and repeats of bound variables carry no residual
        re-check.  The executor must skip NaN probes entirely, like the
        reference evaluator's == join."""
        nan = float("nan")
        schema = Schema([
            RelationSchema("R", ["a", "b"]),
            RelationSchema("S", ["a", "c"]),
        ])
        db = Database(schema)
        db.insert_all("R", [(1, nan)])
        db.insert_all("S", [(1, "a")])
        q = parse_query('Q(C) :- R(X, Y), S(X, C), R(X, Y), C < "b"')
        assert list(reference_bindings(q, db)) == []
        assert list(enumerate_bindings(q, db)) == []

    def test_nan_values_rejected_by_variable_equality(self):
        # The var-var probe may hit the NaN row via object identity; the
        # residual re-check must reject it, matching the reference.
        nan = float("nan")
        schema = Schema([
            RelationSchema("R", ["a", "b"]),
            RelationSchema("S", ["b", "c"]),
        ])
        db = Database(schema)
        db.insert_all("R", [(1, nan), (2, 5)])
        db.insert_all("S", [(nan, 10), (5, 20)])
        q = parse_query("Q(A, C) :- R(A, B), S(D, C), B = D")
        planned = _multiset(enumerate_bindings(q, db))
        assert planned == _multiset(reference_bindings(q, db))
        assert sum(planned.values()) == 1  # only the 5 = 5 join survives

    def test_contradictory_constants_short_circuit(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        plan = plan_query(q, skewed_db)
        assert plan.empty
        assert "contradictory equality comparisons" in plan.explain()
        assert list(enumerate_bindings(q, skewed_db)) == []
        assert list(reference_bindings(q, skewed_db)) == []

    def test_value_equal_constants_are_not_contradictory(self, skewed_db):
        # X = 1 and X = 1.0 are jointly satisfiable (1 == 1.0); probing
        # with either constant finds the same rows.
        b = Variable("B")
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), b])],
            [
                ComparisonAtom(b, ComparisonOp.EQ, Constant(1)),
                ComparisonAtom(b, ComparisonOp.EQ, Constant(1.0)),
            ],
        )
        plan = plan_query(q, skewed_db)
        assert not plan.empty
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_order_comparisons_push_to_ordered_path_and_stay_residual(
        self, skewed_db
    ):
        q = parse_query("Q(A) :- Big(A, B), B < 5")
        plan = plan_query(q, skewed_db)
        assert plan.pushed == ()
        assert plan.pushed_ranges == (ComparisonAtom(
            Variable("B"), ComparisonOp.LT, Constant(5)
        ),)
        # The bisect probe narrows; the residual re-check stays for
        # exact reference semantics.
        assert plan.steps[0].range_position == 1
        assert len(plan.steps[0].comparisons) == 1

    def test_self_equality_stays_residual(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), A = A")
        plan = plan_query(q, skewed_db)
        assert plan.pushed == ()
        assert len(plan.steps[0].comparisons) == 1

    def test_pushdown_survives_plan_cache_rebinding(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A) :- Big(A, B), B = 7"))
        rebound = planner.plan(parse_query("Q(X) :- Big(X, Y), Y = 7"))
        assert planner.hits == 1
        assert rebound.steps[0].lookup_terms == (Constant(7),)
        assert rebound.pushed == (ComparisonAtom(
            Variable("Y"), ComparisonOp.EQ, Constant(7)
        ),)
        bindings = list(execute_plan(rebound, skewed_db))
        assert bindings and all(b[Variable("Y")] == 7 for b in bindings)


class TestRangePushdown:
    """The interval closure and its ordered access paths."""

    def test_bounds_merge_into_one_interval(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B >= 10, B < 20, B >= 5")
        plan = plan_query(q, skewed_db)
        step = plan.steps[0]
        assert step.range_position == 1
        assert step.range_interval.lo == 10
        assert not step.range_interval.lo_open
        assert step.range_interval.hi == 20
        assert step.range_interval.hi_open
        assert len(plan.pushed_ranges) == 3

    def test_strict_bound_wins_over_inclusive_at_same_value(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B <= 20, B < 20")
        plan = plan_query(q, skewed_db)
        interval = plan.steps[0].range_interval
        assert interval.hi == 20 and interval.hi_open

    def test_flipped_comparison_is_normalized(self, skewed_db):
        # 20 > B is B < 20.
        q = parse_query("Q(A) :- Big(A, B), 20 > B")
        plan = plan_query(q, skewed_db)
        interval = plan.steps[0].range_interval
        assert interval.hi == 20 and interval.hi_open

    def test_range_results_match_reference(self, skewed_db):
        q = parse_query("Q(A, B) :- Big(A, B), B >= 10, B < 20")
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_empty_interval_short_circuits(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B < 2, B > 5")
        plan = plan_query(q, skewed_db)
        assert plan.empty
        assert "empty range interval" in plan.explain()
        assert list(enumerate_bindings(q, skewed_db)) == []
        assert list(reference_bindings(q, skewed_db)) == []

    def test_point_interval_with_open_end_is_empty(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B >= 2, B < 2")
        assert plan_query(q, skewed_db).empty

    def test_equality_constant_outside_interval_is_empty(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B = 30, B < 20")
        plan = plan_query(q, skewed_db)
        assert plan.empty
        assert list(enumerate_bindings(q, skewed_db)) == []

    def test_equality_constant_inside_interval_probes_hash_index(
        self, skewed_db
    ):
        q = parse_query("Q(A) :- Big(A, B), B = 7, B < 20")
        plan = plan_query(q, skewed_db)
        step = plan.steps[0]
        assert step.lookup_positions == (1,)
        assert step.range_position is None
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_interval_propagates_through_equality_closure(self, skewed_db):
        # D < 2 tightens the whole {B, D} class, so the class's first
        # step probes an ordered index even though only D is named.
        q = parse_query("Q(A, C) :- Big(A, B), Small(D, C), B = D, D < 2")
        plan = plan_query(q, skewed_db)
        first = plan.steps[0]
        assert first.atom.relation == "Small"
        assert first.range_position == 0
        assert first.range_interval.hi == 2
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_class_interval_counted_once_per_atom(self):
        # X = Y share one interval; pricing it per occurrence would
        # square the selectivity and underestimate the step.
        schema = Schema([RelationSchema("R", ["a", "b"])])
        db = Database(schema)
        db.insert_all("R", [(i, i) for i in range(100)])
        q = parse_query("Q(X, Y) :- R(X, Y), X = Y, Y < 50")
        plan = plan_query(q, db)
        assert plan.steps[0].estimated_matches == pytest.approx(50.0, rel=0.1)

    def test_incomparable_bounds_not_absorbed(self, skewed_db):
        b = Variable("B")
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), b])],
            [
                ComparisonAtom(b, ComparisonOp.GT, Constant(1)),
                ComparisonAtom(b, ComparisonOp.LT, Constant("a")),
            ],
        )
        plan = plan_query(q, skewed_db)
        # Only the comparable bound is pushed; the str bound stays
        # residual-only so the interval never mixes types.
        assert len(plan.pushed_ranges) == 1
        interval = plan.steps[0].range_interval
        assert interval.lo == 1 and interval.hi is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            planned = _multiset(enumerate_bindings(q, skewed_db))
        assert planned == _multiset(reference_bindings(q, skewed_db))

    def test_nan_bound_stays_residual(self, skewed_db):
        nan = float("nan")
        b = Variable("B")
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), b])],
            [ComparisonAtom(b, ComparisonOp.LT, Constant(nan))],
        )
        plan = plan_query(q, skewed_db)
        assert plan.pushed_ranges == ()
        assert not plan.empty
        assert list(enumerate_bindings(q, skewed_db)) == []
        assert list(reference_bindings(q, skewed_db)) == []

    def test_variable_variable_range_stays_residual(self, skewed_db):
        q = parse_query("Q(A, B) :- Big(A, B), A < B")
        plan = plan_query(q, skewed_db)
        assert plan.pushed_ranges == ()
        assert plan.steps[0].range_position is None

    def test_range_on_bound_join_variable_keeps_index_probe(self, skewed_db):
        # B is bound by Small first; Big probes the hash index on B and
        # the range is a residual filter scheduled at Small's step.
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), B < 2")
        plan = plan_query(q, skewed_db)
        big = next(s for s in plan.steps if s.atom.relation == "Big")
        assert big.lookup_positions == (1,)
        assert big.range_position is None
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_mixed_type_column_degrades_to_warning_and_recheck(self):
        schema = Schema([RelationSchema("M", ["a", "b"])])
        db = Database(schema)
        db.insert_all("M", [(1, 5), (2, "x"), (3, 9)])
        q = parse_query("Q(A) :- M(A, B), B < 8")
        plan = plan_query(q, db)
        assert plan.steps[0].range_position == 1  # planner still pushes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            planned = _multiset(enumerate_bindings(q, db))
        assert planned == _multiset(reference_bindings(q, db))
        assert sum(planned.values()) == 1
        assert any(
            issubclass(w.category, MixedTypeComparisonWarning)
            for w in caught
        )

    def test_range_pushdown_survives_plan_cache_rebinding(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A) :- Big(A, B), B < 20"))
        rebound = planner.plan(parse_query("Q(X) :- Big(X, Y), Y < 20"))
        assert planner.hits == 1
        assert rebound.pushed_ranges == (ComparisonAtom(
            Variable("Y"), ComparisonOp.LT, Constant(20)
        ),)
        bindings = list(execute_plan(rebound, skewed_db))
        assert bindings and all(b[Variable("Y")] < 20 for b in bindings)

    def test_string_ranges_are_pushable(self, skewed_db):
        schema = Schema([RelationSchema("Names", ["n"])])
        db = Database(schema)
        db.insert_all("Names", [("alice",), ("bob",), ("carol",), ("dave",)])
        q = parse_query('Q(N) :- Names(N), N < "c"')
        plan = plan_query(q, db)
        assert plan.steps[0].range_position == 0
        assert sorted(
            b[Variable("N")] for b in enumerate_bindings(q, db)
        ) == ["alice", "bob"]


class TestCompositePushdown:
    """Equality + range on one step become a single composite probe."""

    @pytest.fixture
    def wide_db(self):
        """Wide(a, ty, k): ty splits rows in half, k is unique."""
        schema = Schema([RelationSchema("Wide", ["a", "ty", "k"])])
        db = Database(schema)
        db.insert_all(
            "Wide",
            [(i, "hot" if i % 2 == 0 else "cold", i) for i in range(100)],
        )
        return db

    def test_equality_and_range_share_one_probe(self, wide_db):
        q = parse_query('Q(A) :- Wide(A, Ty, K), Ty = "hot", K < 10')
        plan = plan_query(q, wide_db)
        step = plan.steps[0]
        assert step.lookup_positions == (1,)
        assert step.lookup_terms == (Constant("hot"),)
        assert step.range_position == 2
        assert step.range_interval.hi == 10 and step.range_interval.hi_open
        assert step.path_kind == "composite"
        assert 'composite index on [1]="hot" + [2] in' in step.access_path

    def test_composite_results_match_reference(self, wide_db):
        q = parse_query('Q(A, K) :- Wide(A, Ty, K), Ty = "hot", K < 10')
        planned = _multiset(enumerate_bindings(q, wide_db))
        assert planned == _multiset(reference_bindings(q, wide_db))
        assert sum(planned.values()) == 5  # even i < 10

    def test_path_kind_covers_all_four_shapes(self, wide_db):
        shapes = {
            "Q(A) :- Wide(A, Ty, K)": "scan",
            'Q(A) :- Wide(A, Ty, K), Ty = "hot"': "hash",
            "Q(A) :- Wide(A, Ty, K), K < 10": "ordered",
            'Q(A) :- Wide(A, Ty, K), Ty = "hot", K < 10': "composite",
        }
        for text, kind in shapes.items():
            plan = plan_query(parse_query(text), wide_db)
            assert plan.steps[0].path_kind == kind, text

    def test_bound_join_variable_gets_composite_probe(self, skewed_db):
        # Small (2 rows) binds B first; Big's step hash-probes [1]=B and
        # the A < 5 interval upgrades it to a composite probe.
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), A < 5")
        plan = plan_query(q, skewed_db)
        big = next(s for s in plan.steps if s.atom.relation == "Big")
        assert big.lookup_positions == (1,)
        assert big.range_position == 0
        assert big.path_kind == "composite"
        assert _multiset(enumerate_bindings(q, skewed_db)) == _multiset(
            reference_bindings(q, skewed_db)
        )

    def test_most_selective_interval_position_chosen(self):
        schema = Schema([RelationSchema("R", ["ty", "x", "y"])])
        db = Database(schema)
        db.insert_all(
            "R", [("t", i, i % 10) for i in range(100)]
        )
        # x < 5 keeps ~5 rows, y < 8 keeps ~80: x wins the bisect slot.
        q = parse_query('Q(X, Y) :- R(Ty, X, Y), Ty = "t", X < 5, Y < 8')
        plan = plan_query(q, db)
        step = plan.steps[0]
        assert step.range_position == 1
        assert _multiset(enumerate_bindings(q, db)) == _multiset(
            reference_bindings(q, db)
        )

    def test_equality_constant_position_never_hosts_the_bisect(self, wide_db):
        # K's class carries a constant: the hash probe on K is strictly
        # stronger than any interval, so no composite path appears.
        q = parse_query('Q(A) :- Wide(A, Ty, K), K = 4, K < 10')
        plan = plan_query(q, wide_db)
        step = plan.steps[0]
        assert step.lookup_positions == (2,)
        assert step.range_position is None
        assert step.path_kind == "hash"

    def test_interval_propagates_through_equality_closure(self):
        # J = K, K < 10: K's interval tightens the whole {J, K} class,
        # so Wide's step hosts the bisect on J's position even though
        # only K is range-constrained by name.
        schema = Schema([
            RelationSchema("Wide", ["a", "ty", "j"]),
            RelationSchema("Keys", ["k"]),
        ])
        db = Database(schema)
        db.insert_all(
            "Wide",
            [(i, "hot" if i % 2 == 0 else "cold", i) for i in range(100)],
        )
        db.insert_all("Keys", [(i,) for i in range(100)])
        q = parse_query(
            'Q(A) :- Wide(A, Ty, J), Keys(K), Ty = "hot", J = K, K < 10'
        )
        plan = plan_query(q, db)
        wide = next(s for s in plan.steps if s.atom.relation == "Wide")
        assert wide.path_kind == "composite"
        assert wide.lookup_positions == (1,)
        assert wide.range_position == 2
        assert wide.range_interval.hi == 10 and wide.range_interval.hi_open
        assert _multiset(enumerate_bindings(q, db)) == _multiset(
            reference_bindings(q, db)
        )

    def test_mixed_type_bucket_degrades_to_hash_and_recheck(self):
        schema = Schema([RelationSchema("M", ["ty", "k"])])
        db = Database(schema)
        db.insert_all(
            "M", [("hot", 5), ("hot", "x"), ("hot", 9), ("cold", 1)]
        )
        q = parse_query('Q(K) :- M(Ty, K), Ty = "hot", K < 8')
        plan = plan_query(q, db)
        assert plan.steps[0].path_kind == "composite"  # planner still pushes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            planned = _multiset(enumerate_bindings(q, db))
        assert planned == _multiset(reference_bindings(q, db))
        assert sum(planned.values()) == 1
        assert any(
            issubclass(w.category, MixedTypeComparisonWarning)
            for w in caught
        )

    def test_nan_rows_excluded_from_composite_buckets(self):
        nan = float("nan")
        schema = Schema([RelationSchema("M", ["ty", "k"])])
        db = Database(schema)
        db.insert_all(
            "M", [("hot", 1.0), ("hot", nan), ("hot", 3.0), ("cold", 2.0)]
        )
        q = parse_query('Q(K) :- M(Ty, K), Ty = "hot", K < 5')
        planned = _multiset(enumerate_bindings(q, db))
        assert planned == _multiset(reference_bindings(q, db))
        assert sum(planned.values()) == 2  # NaN row rejected both ways

    def test_incremental_maintenance_across_executions(self, wide_db):
        q = parse_query('Q(A) :- Wide(A, Ty, K), Ty = "hot", K >= 200')
        planner = QueryPlanner(wide_db)
        assert list(enumerate_bindings(q, wide_db, planner=planner)) == []
        wide_db.insert("Wide", 200, "hot", 200)  # maintained incrementally
        bindings = list(enumerate_bindings(q, wide_db, planner=planner))
        assert [b[Variable("A")] for b in bindings] == [200]
        wide_db.delete("Wide", 200, "hot", 200)
        assert list(enumerate_bindings(q, wide_db, planner=planner)) == []

    def test_composite_survives_plan_cache_rebinding(self, wide_db):
        planner = QueryPlanner(wide_db)
        planner.plan(parse_query('Q(A) :- Wide(A, Ty, K), Ty = "hot", K < 10'))
        rebound = planner.plan(
            parse_query('Q(X) :- Wide(X, T, J), T = "hot", J < 10')
        )
        assert planner.hits == 1
        step = rebound.steps[0]
        assert step.path_kind == "composite"
        assert step.lookup_terms == (Constant("hot"),)
        assert set(step.pushed) == {
            ComparisonAtom(Variable("T"), ComparisonOp.EQ, Constant("hot")),
            ComparisonAtom(Variable("J"), ComparisonOp.LT, Constant(10)),
        }
        bindings = list(execute_plan(rebound, wide_db))
        assert sorted(b[Variable("X")] for b in bindings) == [0, 2, 4, 6, 8]

    def test_composite_on_virtual_relation(self, skewed_db):
        rows = [(i, "hot" if i % 2 == 0 else "cold", i) for i in range(50)]
        virtual = view_store({"V": 3})
        virtual.relation("V").insert_many(rows)
        q = parse_query('Q(A) :- V(A, Ty, K), Ty = "hot", K < 10')
        plan = plan_query(q, skewed_db, virtual)
        step = plan.steps[0]
        assert step.virtual and step.path_kind == "composite"
        bindings = list(execute_plan(plan, skewed_db, virtual))
        assert sorted(b[Variable("A")] for b in bindings) == [0, 2, 4, 6, 8]

    def test_step_pushed_attribution(self, wide_db):
        q = parse_query('Q(A) :- Wide(A, Ty, K), Ty = "hot", K < 10, A < K')
        plan = plan_query(q, wide_db)
        step = plan.steps[0]
        # The access path serves the equality and the range; the var-var
        # comparison stays residual only.
        assert set(step.pushed) == {
            ComparisonAtom(Variable("Ty"), ComparisonOp.EQ, Constant("hot")),
            ComparisonAtom(Variable("K"), ComparisonOp.LT, Constant(10)),
        }
        assert ComparisonAtom(
            Variable("A"), ComparisonOp.LT, Variable("K")
        ) in step.comparisons


class TestExplain:
    def test_explain_mentions_every_atom(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        text = plan_query(q, skewed_db).explain()
        assert "Big" in text and "Small" in text
        assert "estimated cost" in text
        assert "index on" in text
        assert "scan" in text

    def test_explain_empty_plan(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), 1 = 2")
        plan = plan_query(q, skewed_db)
        assert plan.empty
        assert "empty result" in plan.explain()

    def test_explain_no_atoms(self, skewed_db):
        q = parse_query('Q("ok") :- 1 < 2')
        text = plan_query(q, skewed_db).explain()
        assert "single empty binding" in text

    def test_explain_renders_pushed_vs_residual(self, skewed_db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), B = 1, A < C")
        text = plan_query(q, skewed_db).explain()
        assert "pushed predicates:" in text
        assert "]: B = 1" in text
        assert "then check residual A < C" in text
        assert "B = 1" not in text.split("then check residual", 1)[1]

    def test_explain_without_pushed_comparisons_has_no_pushed_line(
        self, skewed_db
    ):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        text = plan_query(q, skewed_db).explain()
        assert "pushed predicates" not in text

    def test_explain_renders_ordered_access_path(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B >= 10, B < 20, A < B")
        text = plan_query(q, skewed_db).explain()
        assert "ordered index on [1] in [10, 20)" in text
        assert "then check residual" in text
        pushed_line = next(
            line for line in text.splitlines()
            if line.strip().startswith("step 1")
        )
        assert "B >= 10, B < 20" in pushed_line
        # The var-var range is never pushed.
        assert "A < B" not in pushed_line

    def test_explain_lists_one_access_path_per_step(self, skewed_db):
        """The satellite fix: an equality and a range served by one
        composite probe render as ONE access path, never as two separate
        pushed lines implying two probes."""
        q = parse_query("Q(A) :- Big(A, B), A = 7, B >= 10, B < 20")
        text = plan_query(q, skewed_db).explain()
        pushed_lines = [
            line for line in text.splitlines()
            if line.strip().startswith("step ")
        ]
        assert len(pushed_lines) == 1
        line = pushed_lines[0]
        assert "composite index on [0]=7 + [1] in [10, 20)" in line
        assert "A = 7" in line and "B >= 10" in line and "B < 20" in line
        # The legacy two-section rendering is gone.
        assert "pushed into access paths" not in text
        assert "pushed into ordered access paths" not in text

    def test_explain_ground_false_short_circuit_reason(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), 1 = 2")
        text = plan_query(q, skewed_db).explain()
        assert "empty result (false ground comparison)" in text

    def test_explain_contradiction_short_circuit_reason(self, skewed_db):
        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        text = plan_query(q, skewed_db).explain()
        assert "empty result (contradictory equality comparisons)" in text
        # The short circuit never renders join steps.
        assert "rows/probe" not in text


class TestPlanErrors:
    def test_parameterized_query_rejected(self, skewed_db):
        q = parse_query("lambda A. V(A, B) :- Big(A, B)")
        with pytest.raises(QueryError):
            plan_query(q, skewed_db)

    def test_base_arity_mismatch_rejected_at_plan_time(self, skewed_db):
        q = parse_query("Q(A) :- Big(A)")
        with pytest.raises(QueryError):
            plan_query(q, skewed_db)

    def test_virtual_arity_mismatch_rejected(self, skewed_db):
        q = parse_query("Q(X) :- V(X, Y)")
        virtual = view_store({"V": 1})
        virtual.insert("V", 1)
        with pytest.raises(QueryError):
            plan_query(q, skewed_db, virtual)

    def test_comparison_variable_without_relational_atom_rejected(
        self, skewed_db
    ):
        """A comparison over a variable no relational atom binds (e.g.
        ``q(X) :- Big(X, B), Y < 3``) must fail loudly at plan time — not
        be silently dropped, and not surface later as a KeyError inside
        the executor."""
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), Variable("B")])],
            [ComparisonAtom(Variable("Y"), ComparisonOp.LT, Constant(3))],
        )
        with pytest.raises(QueryError, match="Y"):
            plan_query(q, skewed_db)
        with pytest.raises(QueryError, match="Y"):
            QueryPlanner(skewed_db).plan(q)
        with pytest.raises(QueryError, match="Y"):
            list(enumerate_bindings(q, skewed_db))
        with pytest.raises(QueryError, match="Y"):
            list(reference_bindings(q, skewed_db))

    def test_unanchored_equality_variable_rejected_not_dropped(
        self, skewed_db
    ):
        # Same guarantee for pushable ops: the closure must never absorb
        # a comparison whose variable the safety check would reject.
        q = ConjunctiveQuery(
            "Q",
            [Variable("A")],
            [RelationalAtom("Big", [Variable("A"), Variable("B")])],
            [ComparisonAtom(Variable("Y"), ComparisonOp.EQ, Constant(3))],
        )
        with pytest.raises(QueryError, match="Y"):
            plan_query(q, skewed_db)


class TestPlanner:
    def test_alpha_equivalent_queries_share_plan(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A, C) :- Big(A, B), Small(B, C)"))
        planner.plan(parse_query("Q(X, Z) :- Big(X, Y), Small(Y, Z)"))
        assert planner.hits == 1 and planner.misses == 1
        assert planner.size == 1

    def test_rebound_plan_uses_caller_variables(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A, C) :- Big(A, B), Small(B, C)"))
        rebound = planner.plan(
            parse_query("Q(X, Z) :- Big(X, Y), Small(Y, Z)")
        )
        join = rebound.steps[1]
        assert join.lookup_terms == (Variable("Y"),)
        bindings = list(execute_plan(rebound, skewed_db))
        assert bindings and all(Variable("X") in b for b in bindings)

    def test_data_change_invalidates_plan(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        planner.plan(q)
        skewed_db.insert("Small", 3, 300)
        planner.plan(q)
        assert planner.misses == 2 and planner.hits == 0

    def test_virtual_size_change_invalidates_plan(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        q = parse_query("Q(X, B) :- V(X), Big(X, B)")
        virtual = view_store({"V": 1})
        virtual.insert("V", 1)
        planner.plan(q, virtual)
        virtual.insert("V", 2)
        planner.plan(q, virtual)
        assert planner.misses == 2

    def test_same_size_virtual_content_change_invalidates_plan(
        self, skewed_db
    ):
        """Regression: replacing a view's row (same size, new content)
        must not keep serving a plan costed against dead statistics."""
        planner = QueryPlanner(skewed_db)
        q = parse_query("Q(X, B) :- V(X), Big(X, B)")
        virtual = view_store({"V": 1})
        virtual.insert("V", 1)
        planner.plan(q, virtual)
        virtual.delete("V", 1)
        virtual.insert("V", 2)  # same size, different row
        planner.plan(q, virtual)
        assert planner.misses == 2 and planner.hits == 0

    def test_view_write_replans_only_queries_over_that_view(
        self, skewed_db
    ):
        planner = QueryPlanner(skewed_db)
        over_v = parse_query("Q(X, B) :- V(X), Big(X, B)")
        over_w = parse_query("Q(X, B) :- W(X), Big(X, B)")
        virtual = view_store({"V": 1, "W": 1})
        virtual.insert("V", 1)
        virtual.insert("W", 1)
        planner.plan(over_v, virtual)
        planner.plan(over_w, virtual)
        virtual.insert("V", 2)
        planner.plan(over_w, virtual)
        assert planner.hits == 1 and planner.misses == 2
        planner.plan(over_v, virtual)
        assert planner.hits == 1 and planner.misses == 3

    def test_another_store_never_serves_the_plan(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        q = parse_query("Q(X, B) :- V(X), Big(X, B)")
        one, two = view_store({"V": 1}), view_store({"V": 1})
        one.insert("V", 1)
        two.insert("V", 1)
        planner.plan(q, one)
        planner.plan(q, two)  # equal versions, different extensions
        assert planner.hits == 0 and planner.misses == 2

    def test_write_replans_only_queries_over_the_written_relation(
        self, skewed_db
    ):
        planner = QueryPlanner(skewed_db)
        big = parse_query("Q(A) :- Big(A, B)")
        small = parse_query("Q(C) :- Small(B, C)")
        planner.plan(big)
        planner.plan(small)
        skewed_db.insert("Small", 3, 300)
        planner.plan(big)
        assert planner.hits == 1 and planner.misses == 2
        planner.plan(small)
        assert planner.hits == 1 and planner.misses == 3

    def test_shape_ignores_estimates(self, skewed_db):
        query = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        before = plan_query(query, skewed_db)
        skewed_db.insert("Small", 3, 300)
        after = plan_query(query, skewed_db)
        assert after.steps != before.steps
        assert after.shape == before.shape
        assert [index for index, *__ in after.shape[1]] == [1, 0]

    def test_clear(self, skewed_db):
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A) :- Big(A, B)"))
        planner.clear()
        assert planner.size == 0 and planner.misses == 0

    def test_parameterized_query_rejected_even_on_warm_cache(self, skewed_db):
        """λ-parameters are invisible to the canonical key, so the planner
        must reject parameterized queries before cache lookup — a warm
        cache must not hand back the instantiated sibling's plan."""
        planner = QueryPlanner(skewed_db)
        planner.plan(parse_query("Q(A) :- Big(A, B)"))
        with pytest.raises(QueryError):
            planner.plan(parse_query("lambda B. Q(A) :- Big(A, B)"))


class TestPlannerBound:
    """The LRU bound on the plan cache: distinct-structure floods evict
    the least recently used plans instead of growing without limit."""

    STRUCTURES = [
        "Q(A) :- Big(A, B)",
        "Q(C) :- Small(B, C)",
        "Q(A, C) :- Big(A, B), Small(B, C)",
    ]

    def test_eviction_beyond_max_entries(self, skewed_db):
        planner = QueryPlanner(skewed_db, max_entries=2)
        for text in self.STRUCTURES:
            planner.plan(parse_query(text))
        assert planner.size == 2
        assert planner.evictions >= 1
        # The oldest structure was evicted: replanning misses again.
        misses = planner.misses
        planner.plan(parse_query(self.STRUCTURES[0]))
        assert planner.misses == misses + 1

    def test_hit_refreshes_lru_order(self, skewed_db):
        planner = QueryPlanner(skewed_db, max_entries=2)
        planner.plan(parse_query(self.STRUCTURES[0]))
        planner.plan(parse_query(self.STRUCTURES[1]))
        planner.plan(parse_query(self.STRUCTURES[0]))  # refresh entry 0
        planner.plan(parse_query(self.STRUCTURES[2]))  # evicts entry 1
        misses = planner.misses
        planner.plan(parse_query(self.STRUCTURES[0]))
        assert planner.misses == misses

    def test_bounded_planner_results_unchanged(self, skewed_db):
        bounded = QueryPlanner(skewed_db, max_entries=1)
        unbounded = QueryPlanner(skewed_db)
        for text in self.STRUCTURES * 2:
            query = parse_query(text)
            left = list(execute_plan(bounded.plan(query), skewed_db))
            right = list(execute_plan(unbounded.plan(query), skewed_db))
            assert left == right

    def test_clear_resets_counters_coherently(self, skewed_db):
        planner = QueryPlanner(skewed_db, max_entries=1)
        for text in self.STRUCTURES:
            planner.plan(parse_query(text))
        assert planner.evictions >= 2
        planner.clear()
        assert planner.size == 0
        assert (planner.hits, planner.misses, planner.evictions) == (0, 0, 0)

    def test_rejects_nonpositive_bound(self, skewed_db):
        with pytest.raises(ValueError):
            QueryPlanner(skewed_db, max_entries=0)


class TestCanonicalize:
    def test_canonical_queries_equal_for_alpha_variants(self):
        q1 = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        q2 = parse_query('Q(M) :- Family(G, M, T2), T2 = "gpcr"')
        c1, __ = canonicalize(q1)
        c2, __ = canonicalize(q2)
        assert c1 == c2
        assert canonical_key(q1) == canonical_key(q2)

    def test_renaming_round_trips(self):
        q = parse_query("Q(A, C) :- R(A, B), S(B, C), A < C")
        canonical, renaming = canonicalize(q)
        assert set(renaming) == {Variable("A"), Variable("B"), Variable("C")}
        inverse = {canon: orig for orig, canon in renaming.items()}
        assert canonical.substitute(inverse).atoms == q.atoms


class TestMixedTypeWarning:
    def test_warns_once_per_query_execution(self, skewed_db):
        q = parse_query('Q(A) :- Big(A, B), B < "zzz"')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = list(enumerate_bindings(q, skewed_db))
        assert result == []
        mixed = [w for w in caught
                 if issubclass(w.category, MixedTypeComparisonWarning)]
        assert len(mixed) == 1
        message = mixed[0].message
        assert message.query_name == "Q"
        assert message.left_type == "int" and message.right_type == "str"
