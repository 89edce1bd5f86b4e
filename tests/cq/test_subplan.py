"""Tests for cross-query sub-plan sharing (repro.cq.subplan)."""

import pytest

from repro.cq.evaluation import reference_bindings
from repro.cq.executor import execute_plan
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner, plan_query, prefix_keys
from repro.cq.subplan import (
    SubplanMemo,
    execute_plan_shared,
    explain_with_memo,
)
from repro.relational.database import Database, view_store
from repro.relational.schema import RelationSchema, Schema


def make_db() -> Database:
    schema = Schema([
        RelationSchema("R", ["a", "b"]),
        RelationSchema("S", ["b", "c"]),
        RelationSchema("T", ["c", "d"]),
        RelationSchema("U", ["c", "d"]),
    ])
    db = Database(schema)
    # Sizes chosen so the greedy planner orders every plan R, S, suffix:
    # R is smallest (picked first), S probes cheaply on the bound b, and
    # the large T/U relations come last — so plans over QUERY_T/QUERY_U
    # share the two-step R ⋈ S prefix and differ only in the suffix.
    db.insert_batch({
        "R": [(i, i % 3) for i in range(6)],
        "S": [(b, b * 10 + k) for b in range(3) for k in range(4)],
        "T": [(c, c + 100) for c in range(0, 40)],
        "U": [(c, c + 200) for c in range(0, 80, 2)],
    })
    return db


#: Two queries sharing the R ⋈ S join prefix, with distinct suffixes.
QUERY_T = "Q(A, D) :- R(A, B), S(B, C), T(C, D)"
QUERY_U = "Q(A, D) :- R(A, B), S(B, C), U(C, D)"


def ordered(bindings):
    return [
        tuple(sorted((var.name, value) for var, value in binding.items()))
        for binding in bindings
    ]


def reserve_all(memo, plan):
    keys, __ = prefix_keys(plan)
    for key in keys:
        memo.reserve(key)
    return keys


class TestPrefixKeys:
    def test_alpha_equivalent_plans_share_every_key(self):
        db = make_db()
        plan_a = plan_query(parse_query(QUERY_T), db)
        plan_b = plan_query(
            parse_query("Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)"), db
        )
        assert prefix_keys(plan_a)[0] == prefix_keys(plan_b)[0]

    def test_overlapping_plans_share_exactly_the_prefix(self):
        db = make_db()
        keys_t = prefix_keys(plan_query(parse_query(QUERY_T), db))[0]
        keys_u = prefix_keys(plan_query(parse_query(QUERY_U), db))[0]
        assert keys_t[:2] == keys_u[:2]
        assert keys_t[2] != keys_u[2]

    def test_constants_are_part_of_the_key(self):
        db = make_db()
        keys_one = prefix_keys(
            plan_query(parse_query("Q(A) :- R(A, B), B = 1"), db)
        )[0]
        keys_two = prefix_keys(
            plan_query(parse_query("Q(A) :- R(A, B), B = 2"), db)
        )[0]
        assert keys_one != keys_two

    def test_adversarial_string_constants_cannot_forge_a_collision(self):
        """Regression: keys are structured tuples, not delimiter-joined
        strings, so a constant crafted to mimic key syntax (one
        comparison whose value reads like two) never collides with the
        genuinely different structure."""
        from repro.cq.atoms import ComparisonAtom, RelationalAtom
        from repro.cq.query import ConjunctiveQuery
        from repro.cq.terms import Constant, Variable
        from repro.relational.expressions import ComparisonOp

        db = Database(Schema([RelationSchema("W", ["a"])]))
        db.insert_all("W", [("x",), ("y",), ("zz",)])
        x = Variable("X")
        two_filters = ConjunctiveQuery(
            "Q", [x], [RelationalAtom("W", [x])],
            [
                ComparisonAtom(x, ComparisonOp.NE, Constant("x")),
                ComparisonAtom(x, ComparisonOp.NE, Constant("y")),
            ],
        )
        forged = ConjunctiveQuery(
            "Q", [x], [RelationalAtom("W", [x])],
            [ComparisonAtom(x, ComparisonOp.NE, Constant('x";p0!="y'))],
        )
        keys_two = prefix_keys(plan_query(two_filters, db))[0]
        keys_forged = prefix_keys(plan_query(forged, db))[0]
        assert keys_two != keys_forged

        memo = SubplanMemo()
        for key in keys_two + keys_forged:
            memo.reserve(key)
        first = {b[x] for b in
                 execute_plan_shared(plan_query(two_filters, db), db,
                                     memo=memo)}
        second = {b[x] for b in
                  execute_plan_shared(plan_query(forged, db), db,
                                      memo=memo)}
        assert first == {"zz"}
        assert second == {"x", "y", "zz"}

    def test_renaming_covers_every_step_variable(self):
        db = make_db()
        plan = plan_query(parse_query(QUERY_T), db)
        __, renaming = prefix_keys(plan)
        step_vars = {
            var for step in plan.steps for var, __ in step.introduces
        }
        assert step_vars <= set(renaming)


class TestExecutePlanShared:
    def test_reserved_prefix_stored_then_seeded(self):
        db = make_db()
        planner = QueryPlanner(db)
        memo = SubplanMemo()
        plan_t = planner.plan(parse_query(QUERY_T))
        plan_u = planner.plan(parse_query(QUERY_U))
        shared = prefix_keys(plan_t)[0][1]
        assert shared == prefix_keys(plan_u)[0][1]
        memo.reserve(shared)

        first = ordered(execute_plan_shared(plan_t, db, memo=memo))
        assert memo.misses == 1 and memo.hits == 0 and memo.size == 1
        second = ordered(execute_plan_shared(plan_u, db, memo=memo))
        assert memo.hits == 1

        assert first == ordered(execute_plan(plan_t, db))
        assert second == ordered(execute_plan(plan_u, db))
        assert sorted(first) == sorted(
            ordered(reference_bindings(parse_query(QUERY_T), db))
        )
        assert sorted(second) == sorted(
            ordered(reference_bindings(parse_query(QUERY_U), db))
        )

    def test_full_plan_sharing_between_alpha_equivalent_queries(self):
        db = make_db()
        planner = QueryPlanner(db)
        memo = SubplanMemo()
        plan_a = planner.plan(parse_query(QUERY_T))
        plan_b = planner.plan(
            parse_query("Q(X, W) :- R(X, Y), S(Y, Z), T(Z, W)")
        )
        reserve_all(memo, plan_a)
        baseline_a = ordered(execute_plan(plan_a, db))
        baseline_b = ordered(execute_plan(plan_b, db))
        assert ordered(execute_plan_shared(plan_a, db, memo=memo)) == \
            baseline_a
        assert ordered(execute_plan_shared(plan_b, db, memo=memo)) == \
            baseline_b
        assert memo.hits == 1 and memo.misses == 1

    def test_nothing_reserved_means_nothing_materialized(self):
        db = make_db()
        memo = SubplanMemo()
        memo.reserve("some-unrelated-key")  # memo is worth checking
        plan = plan_query(parse_query(QUERY_T), db)
        baseline = ordered(execute_plan(plan, db))
        assert ordered(execute_plan_shared(plan, db, memo=memo)) == baseline
        assert memo.size == 0 and memo.hits == 0 and memo.misses == 0

    def test_empty_plan_short_circuits(self):
        db = make_db()
        memo = SubplanMemo()
        plan = plan_query(parse_query("Q(A) :- R(A, B), B = 1, B = 2"), db)
        assert plan.empty
        assert list(execute_plan_shared(plan, db, memo=memo)) == []
        assert memo.size == 0


class TestInvalidation:
    @pytest.mark.parametrize("mutate", [
        lambda db: db.insert("R", 99, 0),
        lambda db: db.delete("R", 0, 0),
        lambda db: db.insert_all("R", [(100, 1), (101, 2)]),
        lambda db: db.insert_batch({"S": [(0, 7)], "R": [(102, 0)]}),
    ])
    def test_mutations_invalidate_stored_prefixes(self, mutate):
        db = make_db()
        memo = SubplanMemo()
        plan = plan_query(parse_query(QUERY_T), db)
        reserve_all(memo, plan)
        list(execute_plan_shared(plan, db, memo=memo))
        assert memo.misses == 1 and memo.size == 3

        mutate(db)
        # Replan (statistics changed) and re-execute: stale entries must
        # not be served, and results must reflect the mutated data.
        plan = plan_query(parse_query(QUERY_T), db)
        result = ordered(execute_plan_shared(plan, db, memo=memo))
        assert memo.hits == 0  # nothing stale was reused
        assert sorted(result) == sorted(
            ordered(reference_bindings(parse_query(QUERY_T), db))
        )
        # The re-materialized entries serve the next execution.
        assert ordered(execute_plan_shared(plan, db, memo=memo)) == result
        assert memo.hits == 1

    def test_virtual_content_change_invalidates(self):
        db = make_db()
        memo = SubplanMemo()
        query = parse_query("Q(A, C) :- V(A, B), S(B, C)")
        virtual = view_store({"V": 2})
        view = virtual.relation("V")
        view.insert_many([(i, i % 2) for i in range(6)])
        plan = plan_query(query, db, virtual)
        reserve_all(memo, plan)
        list(execute_plan_shared(plan, db, virtual, memo=memo))
        assert memo.misses == 1

        # Re-materialized with the same size, different content: the
        # view's version must move.
        view.clear()
        view.insert_many([(i + 50, i % 2) for i in range(6)])
        plan = plan_query(query, db, virtual)
        result = ordered(
            execute_plan_shared(plan, db, virtual, memo=memo)
        )
        assert memo.hits == 0
        assert sorted(result) == sorted(
            ordered(reference_bindings(query, db, virtual))
        )

    def test_write_elsewhere_keeps_stored_prefixes(self):
        db = make_db()
        memo = SubplanMemo()
        plan = plan_query(parse_query(QUERY_T), db)
        reserve_all(memo, plan)
        list(execute_plan_shared(plan, db, memo=memo))
        db.insert("U", 1, 2)  # U is read by no step of the plan
        db.insert("T", 99, 1)  # T is read by the last step only
        result = ordered(execute_plan_shared(plan, db, memo=memo))
        assert memo.hits == 1 and memo.misses == 2
        assert result == ordered(execute_plan(plan, db))


class TestSubplanMemo:
    def test_lru_eviction_and_counts(self):
        db = make_db()
        version = db.stats_version
        memo = SubplanMemo(max_entries=2)
        for index in range(3):
            memo.store(f"k{index}", [], db, version, ())
        assert memo.size == 2
        assert memo.evictions == 1
        # The oldest entry was evicted.
        assert memo.lookup("k0", db, version, ()) is None
        assert memo.lookup("k2", db, version, ()) == []

    def test_lookup_refreshes_lru_order(self):
        db = make_db()
        version = db.stats_version
        memo = SubplanMemo(max_entries=2)
        memo.store("a", [], db, version, ())
        memo.store("b", [], db, version, ())
        memo.lookup("a", db, version, ())  # refresh a; b becomes the LRU entry
        memo.store("c", [], db, version, ())
        assert memo.lookup("a", db, version, ()) is not None
        assert memo.lookup("b", db, version, ()) is None

    def test_stale_entries_dropped_not_served(self):
        db = make_db()
        memo = SubplanMemo()
        memo.store("k", [{}], db, 3, ())
        assert memo.lookup("k", db, 4, ()) is None
        assert memo.size == 0

    def test_entries_are_bound_to_their_database(self):
        """Regression: equal keys over *different* database objects
        describe different data — one database's bindings must never be
        served for another, even at equal stats versions."""
        db_one, db_two = make_db(), make_db()
        memo = SubplanMemo()
        memo.store("k", [{}], db_one, db_one.stats_version, ())
        assert memo.lookup("k", db_two, db_two.stats_version, ()) is None
        assert memo.peek("k", db_two, db_two.stats_version, ()) is None
        # The entry survives for its own database.
        assert memo.lookup("k", db_one, db_one.stats_version, ()) == [{}]

    def test_cross_database_execution_never_reuses_bindings(self):
        schema = Schema([RelationSchema("W", ["a", "b"])])
        db_one = Database(schema)
        db_one.insert("W", 1, 2)
        db_two = Database(schema)
        db_two.insert("W", 3, 4)
        query = parse_query("Q(A, B) :- W(A, B)")
        memo = SubplanMemo()
        plan_one = plan_query(query, db_one)
        plan_two = plan_query(query, db_two)
        for key in prefix_keys(plan_one)[0] + prefix_keys(plan_two)[0]:
            memo.reserve(key)
        list(execute_plan_shared(plan_one, db_one, memo=memo))
        result = ordered(execute_plan_shared(plan_two, db_two, memo=memo))
        assert result == ordered(execute_plan(plan_two, db_two))

    def test_clear_resets_everything(self):
        db = make_db()
        version = db.stats_version
        memo = SubplanMemo(max_entries=1)
        memo.reserve("k")
        memo.store("a", [], db, version, ())
        memo.store("b", [], db, version, ())
        memo.hits += 2
        memo.misses += 1
        memo.clear()
        assert memo.size == 0
        assert not memo.worth_checking
        assert (memo.hits, memo.misses, memo.evictions) == (0, 0, 0)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SubplanMemo(max_entries=0)


class TestExplainWithMemo:
    def test_reserved_then_reused_rendering(self):
        db = make_db()
        planner = QueryPlanner(db)
        memo = SubplanMemo()
        plan_t = planner.plan(parse_query(QUERY_T))
        memo.reserve(prefix_keys(plan_t)[0][1])

        reserved = explain_with_memo(plan_t, memo, db)
        assert "shared prefix: steps 1-2 shared across the batch" in reserved

        list(execute_plan_shared(plan_t, db, memo=memo))
        reused = explain_with_memo(plan_t, memo, db)
        assert "shared prefix: steps 1-2 reused from memo" in reused
        # Observational only: no counters moved.
        assert memo.hits == 0

    def test_plain_plan_renders_unchanged(self):
        db = make_db()
        plan = plan_query(parse_query(QUERY_T), db)
        assert explain_with_memo(plan, SubplanMemo(), db) == plan.explain()
