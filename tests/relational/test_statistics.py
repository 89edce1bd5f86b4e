"""Tests for incrementally maintained relation statistics."""

import pytest

from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema
from repro.relational.statistics import (
    DEFAULT_RANGE_SELECTIVITY,
    EquiDepthHistogram,
    Interval,
    RelationStatistics,
)


def statistics_of(rows, arity):
    """Statistics of ``rows``, built the way a bulk load builds them."""
    stats = RelationStatistics(arity)
    stats.add_rows(rows)
    return stats


@pytest.fixture
def db():
    schema = Schema([
        RelationSchema("R", ["a", "b"]),
        RelationSchema("S", ["b", "c"]),
    ])
    return Database(schema)


class TestIncrementalMaintenance:
    def test_insert_updates_stats(self, db):
        db.insert_all("R", [(1, 10), (2, 10), (3, 20)])
        stats = db.relation("R").stats
        assert stats.cardinality == 3
        assert stats.distinct(0) == 3
        assert stats.distinct(1) == 2
        assert stats.frequency(1, 10) == 2

    def test_duplicate_insert_not_double_counted(self, db):
        db.insert("R", 1, 10)
        db.insert("R", 1, 10)  # set semantics: no-op
        assert db.relation("R").stats.cardinality == 1

    def test_delete_updates_stats(self, db):
        db.insert_all("R", [(1, 10), (2, 10)])
        db.delete("R", 1, 10)
        stats = db.relation("R").stats
        assert stats.cardinality == 1
        assert stats.frequency(1, 10) == 1
        assert stats.distinct(0) == 1

    def test_delete_removes_exhausted_values(self, db):
        db.insert("R", 1, 10)
        db.delete("R", 1, 10)
        stats = db.relation("R").stats
        assert stats.cardinality == 0
        assert stats.distinct(0) == 0
        assert stats.frequency(0, 1) == 0

    def test_version_monotone(self, db):
        before = db.stats_version
        db.insert("R", 1, 10)
        mid = db.stats_version
        db.delete("R", 1, 10)
        after = db.stats_version
        assert before < mid < after

    def test_remove_absent_value_raises_instead_of_underflowing(self):
        """Regression: removing a value never recorded used to store a
        ``-1`` frequency (``counter[value] - 1`` is truthy), poisoning
        distinct counts and every selectivity built on them."""
        stats = statistics_of([(1, 10), (2, 20)], 2)
        with pytest.raises(ValueError):
            stats.remove_row((1, 99))  # 99 never inserted at position 1
        # Validate-then-mutate: nothing changed, nothing went negative.
        assert stats.cardinality == 2
        assert stats.frequency(1, 99) == 0
        assert stats.distinct(1) == 2
        assert stats.frequency(0, 1) == 1

    def test_remove_from_empty_statistics_raises(self):
        stats = RelationStatistics(2)
        with pytest.raises(ValueError):
            stats.remove_row((1, 2))
        assert stats.cardinality == 0

    def test_failed_remove_does_not_bump_version(self):
        stats = statistics_of([(1, 10)], 2)
        version = stats.version
        with pytest.raises(ValueError):
            stats.remove_row((1, 11))
        assert stats.version == version


class TestEstimators:
    def test_equality_selectivity(self):
        stats = statistics_of([(1, 10), (2, 10), (3, 20), (4, 20)], 2)
        assert stats.equality_selectivity(0) == pytest.approx(0.25)
        assert stats.equality_selectivity(1) == pytest.approx(0.5)

    def test_value_selectivity_exact(self):
        stats = statistics_of([(1, 10), (2, 10), (3, 20)], 2)
        assert stats.value_selectivity(1, 10) == pytest.approx(2 / 3)
        assert stats.value_selectivity(1, 99) == 0.0

    def test_estimate_matches_combines_constraints(self):
        rows = [(i, i % 2, "x") for i in range(10)]
        stats = statistics_of(rows, 3)
        # position 0: 10 distinct; position 1: 2 distinct.
        assert stats.estimate_matches([0]) == pytest.approx(1.0)
        assert stats.estimate_matches([1]) == pytest.approx(5.0)
        assert stats.estimate_matches([0, 1]) == pytest.approx(0.5)

    def test_empty_relation(self):
        stats = RelationStatistics(2)
        assert stats.cardinality == 0
        assert stats.equality_selectivity(0) == 0.0
        assert stats.estimate_matches([0]) == 0.0

    def test_estimate_access_paths_prices_composite_vs_single_index(self):
        rows = [(i, "hot" if i % 2 == 0 else "cold", i) for i in range(100)]
        stats = statistics_of(rows, 3)
        matched, probed = stats.estimate_access_paths(
            constant_constraints=[(1, "hot")],
            range_constraints=[(2, Interval(lo=0, hi=9))],
        )
        # The hash probe alone touches the whole "hot" bucket; the
        # composite probe narrows to the interval inside the bucket.
        assert probed == pytest.approx(50.0)
        assert matched == pytest.approx(5.0, rel=0.25)
        assert matched <= probed

    def test_estimate_access_paths_agrees_with_estimate_matches(self):
        stats = statistics_of([(i, i % 2) for i in range(100)], 2)
        constraints = dict(
            equality_positions=[1],
            range_constraints=[(0, Interval(lo=0, hi=9))],
        )
        matched, probed = stats.estimate_access_paths(**constraints)
        assert matched == pytest.approx(stats.estimate_matches(**constraints))
        assert probed == pytest.approx(stats.estimate_matches([1]))

    def test_estimate_access_paths_without_ranges_touches_equal(self):
        stats = statistics_of([(i, i % 2) for i in range(10)], 2)
        matched, probed = stats.estimate_access_paths([0])
        assert matched == probed == pytest.approx(1.0)


class TestOrderStatistics:
    def test_min_max(self):
        stats = statistics_of([(3, "b"), (1, "a"), (7, "c")], 2)
        assert stats.min_value(0) == 1 and stats.max_value(0) == 7
        assert stats.min_value(1) == "a" and stats.max_value(1) == "c"

    def test_min_max_empty_column(self):
        stats = RelationStatistics(1)
        assert stats.min_value(0) is None and stats.max_value(0) is None

    def test_mixed_type_column_has_no_order_statistics(self):
        stats = statistics_of([(1,), ("a",)], 1)
        assert stats.min_value(0) is None
        assert stats.histogram(0) is None
        assert stats.range_selectivity(
            0, Interval(lo=0)
        ) == pytest.approx(DEFAULT_RANGE_SELECTIVITY)

    def test_nan_values_excluded_from_order_statistics(self):
        nan = float("nan")
        stats = statistics_of([(1,), (nan,), (5,)], 1)
        assert stats.min_value(0) == 1 and stats.max_value(0) == 5

    def test_order_statistics_refresh_after_mutation(self):
        stats = statistics_of([(1,), (5,)], 1)
        assert stats.max_value(0) == 5
        stats.add_row((9,))
        assert stats.max_value(0) == 9
        stats.remove_row((9,))
        assert stats.max_value(0) == 5

    def test_range_selectivity_uniform_column(self):
        stats = statistics_of([(i,) for i in range(100)], 1)
        sel = stats.range_selectivity(0, Interval(lo=0, hi=19, hi_open=True))
        assert sel == pytest.approx(0.2, abs=0.05)

    def test_range_selectivity_out_of_bounds_is_zero(self):
        stats = statistics_of([(i,) for i in range(10)], 1)
        assert stats.range_selectivity(0, Interval(lo=100)) == 0.0
        assert stats.range_selectivity(0, Interval(hi=-1)) == 0.0
        assert stats.range_selectivity(
            0, Interval(lo=9, lo_open=True)
        ) == 0.0

    def test_range_selectivity_incomparable_bounds_fall_back(self):
        stats = statistics_of([(i,) for i in range(10)], 1)
        sel = stats.range_selectivity(0, Interval(hi="zzz"))
        assert sel == pytest.approx(DEFAULT_RANGE_SELECTIVITY)

    def test_estimate_matches_with_range_constraint(self):
        stats = statistics_of([(i, i % 2) for i in range(100)], 2)
        estimate = stats.estimate_matches(
            equality_positions=[1],
            range_constraints=[(0, Interval(lo=0, hi=9))],
        )
        # ~10% of rows in range, halved by the equality join column.
        assert estimate == pytest.approx(5.0, rel=0.25)

    def test_equi_depth_buckets_balance_skew(self):
        # One hot value with 900 rows, 100 singletons: equi-depth keeps
        # the hot value in its own bucket instead of smearing it.
        rows = [(0,)] * 900 + [(i,) for i in range(1, 101)]
        stats = statistics_of(rows, 1)
        sel = stats.range_selectivity(0, Interval(lo=0, hi=0))
        assert sel == pytest.approx(0.9, rel=0.1)

    def test_histogram_from_frequencies_shape(self):
        hist = EquiDepthHistogram.from_frequencies(
            [(value, 1) for value in range(256)]
        )
        assert sum(rows for __, __, rows in hist.buckets) == 256
        assert all(lo <= hi for lo, hi, __ in hist.buckets)


class TestInterval:
    def test_is_empty(self):
        assert Interval(lo=5, hi=2).is_empty() is True
        assert Interval(lo=2, hi=2, hi_open=True).is_empty() is True
        assert Interval(lo=2, hi=2).is_empty() is False
        assert Interval(lo=2, hi=5).is_empty() is False
        assert Interval().is_empty() is False
        assert Interval(lo=1, hi="a").is_empty() is None

    def test_admits(self):
        interval = Interval(lo=2, lo_open=True, hi=5)
        assert interval.admits(3) is True
        assert interval.admits(2) is False
        assert interval.admits(5) is True
        assert interval.admits(6) is False
        assert interval.admits("x") is None

    def test_describe(self):
        assert Interval(lo=2, hi=5, hi_open=True).describe() == "[2, 5)"
        assert Interval(hi=5).describe() == "(-inf, 5]"
        assert Interval(lo=2, lo_open=True).describe() == "(2, +inf)"


class TestBatchInsert:
    def test_insert_many_equivalent_to_loop(self, db):
        instance = db.relation("R")
        rows = [(i, i % 3) for i in range(100)]
        instance.insert_many(rows)
        assert len(instance) == 100
        assert instance.stats.cardinality == 100

    def test_large_batch_drops_and_rebuilds_indexes(self, db):
        instance = db.relation("R")
        instance.insert((0, 0))
        # Force a secondary index into existence, then bulk-load past it.
        assert instance.lookup((1,), (0,)) == [(0, 0)]
        instance.insert_many([(i, 5) for i in range(1, 200)])
        assert len(instance.lookup((1,), (5,))) == 199

    def test_database_insert_batch(self, db):
        stored = db.insert_batch({
            "R": [(1, 10), (2, 20)],
            "S": [(10, 100)],
        })
        assert len(stored["R"]) == 2
        assert len(db.relation("S")) == 1
