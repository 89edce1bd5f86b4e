"""Tests for database instances and integrity enforcement."""

import pytest

from repro.errors import (
    ArityError,
    ForeignKeyViolationError,
    KeyViolationError,
    TypeMismatchError,
    UnknownRelationError,
)
from repro.relational.database import Database, view_store
from repro.relational.schema import (
    Attribute,
    ForeignKey,
    RelationSchema,
    Schema,
)
from repro.relational.statistics import Interval
from repro.relational.tuples import Row
from repro.relational.types import STRING


@pytest.fixture
def schema():
    return Schema([
        RelationSchema(
            "Family",
            [Attribute("FID", STRING), Attribute("FName", STRING)],
            key=["FID"],
        ),
        RelationSchema(
            "Intro",
            [Attribute("FID", STRING), Attribute("Text", STRING)],
            key=["FID"],
            foreign_keys=[ForeignKey(("FID",), "Family", ("FID",))],
        ),
    ])


@pytest.fixture
def database(schema):
    return Database(schema)


class TestInsert:
    def test_insert_and_iterate(self, database):
        database.insert("Family", "1", "A")
        database.insert("Family", "2", "B")
        rows = database.relation("Family").rows()
        assert [r.values for r in rows] == [("1", "A"), ("2", "B")]

    def test_arity_checked(self, database):
        with pytest.raises(ArityError):
            database.insert("Family", "1")

    def test_domain_checked(self, database):
        with pytest.raises(TypeMismatchError):
            database.insert("Family", 1, "A")

    def test_key_violation(self, database):
        database.insert("Family", "1", "A")
        with pytest.raises(KeyViolationError):
            database.insert("Family", "1", "B")

    def test_identical_reinsert_is_noop(self, database):
        database.insert("Family", "1", "A")
        database.insert("Family", "1", "A")
        assert len(database.relation("Family")) == 1

    def test_unknown_relation(self, database):
        with pytest.raises(UnknownRelationError):
            database.insert("Nope", "x")

    def test_insert_all(self, database):
        rows = database.insert_all("Family", [("1", "A"), ("2", "B")])
        assert len(rows) == 2
        assert database.total_rows() == 2


class TestDelete:
    def test_delete_present(self, database):
        database.insert("Family", "1", "A")
        assert database.delete("Family", "1", "A")
        assert len(database.relation("Family")) == 0

    def test_delete_absent_returns_false(self, database):
        assert not database.delete("Family", "1", "A")

    def test_delete_clears_key_index(self, database):
        database.insert("Family", "1", "A")
        database.delete("Family", "1", "A")
        database.insert("Family", "1", "B")  # same key, no violation
        assert len(database.relation("Family")) == 1

    def test_arity_checked(self, database):
        database.insert("Family", "1", "A")
        with pytest.raises(ArityError):
            database.delete("Family", "1")
        assert database.stats_version == 1

    def test_domain_checked(self, database):
        # An unhashable value is refused by the domain check, not by a
        # bare TypeError from the row lookup.
        with pytest.raises(TypeMismatchError):
            database.delete("Family", [1], "A")


class TestLookups:
    def test_key_lookup(self, database):
        database.insert("Family", "1", "A")
        row = database.relation("Family").lookup_key(("1",))
        assert row is not None and row.values == ("1", "A")
        assert database.relation("Family").lookup_key(("9",)) is None

    def test_secondary_index(self, database):
        database.insert("Family", "1", "A")
        database.insert("Family", "2", "A")
        database.insert("Family", "3", "B")
        matches = database.relation("Family").lookup((1,), ("A",))
        assert matches == [("1", "A"), ("2", "A")]

    def test_index_maintained_after_insert(self, database):
        instance = database.relation("Family")
        database.insert("Family", "1", "A")
        instance.lookup((1,), ("A",))  # build index
        database.insert("Family", "2", "A")
        assert len(instance.lookup((1,), ("A",))) == 2

    def test_index_maintained_after_delete(self, database):
        instance = database.relation("Family")
        database.insert("Family", "1", "A")
        instance.lookup((1,), ("A",))
        database.delete("Family", "1", "A")
        assert instance.lookup((1,), ("A",)) == ()

    def test_empty_positions_returns_all(self, database):
        database.insert("Family", "1", "A")
        assert len(database.relation("Family").lookup((), ())) == 1

    def test_scan_follows_insertion_order(self, database):
        instance = database.relation("Family")
        for fid in "123":
            database.insert("Family", fid, "A")
        assert instance.lookup((), ()) == [("1", "A"), ("2", "A"), ("3", "A")]
        database.delete("Family", "1", "A")
        database.insert("Family", "1", "A")  # a re-insert appends
        assert instance.lookup((), ()) == [("2", "A"), ("3", "A"), ("1", "A")]


class TestForeignKeys:
    def test_violation_detected(self, database):
        database.insert("Intro", "9", "text")
        with pytest.raises(ForeignKeyViolationError):
            database.check_foreign_keys()

    def test_passes_when_satisfied(self, database):
        database.insert("Family", "1", "A")
        database.insert("Intro", "1", "text")
        database.check_foreign_keys()


class TestCopy:
    def test_copy_is_independent(self, database):
        database.insert("Family", "1", "A")
        clone = database.copy()
        clone.insert("Family", "2", "B")
        assert database.total_rows() == 1
        assert clone.total_rows() == 2


@pytest.fixture
def untyped_schema():
    return Schema([
        RelationSchema("Keyed", ["k", "v"], key=["k"]),
        RelationSchema("Plain", ["a", "b"]),
    ])


class TestBulkInsertMany:
    def test_bulk_path_equals_per_row_semantics(self, untyped_schema):
        bulk = Database(untyped_schema)
        slow = Database(untyped_schema)
        rows = [(i, i % 4) for i in range(200)] + [(0, 0)]  # duplicate
        returned = bulk.relation("Plain").insert_many(rows)
        for values in rows:
            slow.relation("Plain").insert(values)
        assert len(returned) == len(rows)
        assert bulk.relation("Plain").rows() == slow.relation("Plain").rows()
        assert (
            bulk.relation("Plain").stats._column_counts
            == slow.relation("Plain").stats._column_counts
        )
        assert bulk.stats_version == slow.stats_version

    def test_bulk_key_violation_keeps_prior_rows(self, untyped_schema):
        db = Database(untyped_schema)
        rows = [(str(i), i) for i in range(100)] + [("5", 999)]
        with pytest.raises(KeyViolationError):
            db.relation("Keyed").insert_many(rows)
        # Everything before the offending row stayed applied, exactly
        # like the per-row loop, and its statistics landed.
        assert len(db.relation("Keyed")) == 100
        assert db.relation("Keyed").stats.cardinality == 100
        assert db.stats_version == 100


class TestUntypedColumns:
    def test_unhashable_values_are_type_errors(self, untyped_schema):
        db = Database(untyped_schema)
        db.insert("Plain", 1, 2)
        with pytest.raises(TypeMismatchError):
            db.insert("Plain", [1], 2)
        with pytest.raises(TypeMismatchError):
            db.delete("Plain", 1, {"b": 2})
        assert db.relation("Plain").rows() == [Row("Plain", (1, 2))]


class TestStatsVersion:
    def test_counter_tracks_effective_mutations(self, untyped_schema):
        db = Database(untyped_schema)
        assert db.stats_version == 0
        db.insert("Plain", 1, 2)
        db.insert("Plain", 1, 2)  # set-semantics no-op
        assert db.stats_version == 1
        db.insert_all("Plain", [(i, 0) for i in range(100)])
        assert db.stats_version == 101
        db.relation("Plain").delete(Row("Plain", (1, 2)))
        db.relation("Plain").delete(Row("Plain", (1, 2)))  # absent no-op
        assert db.stats_version == 102

    def test_counter_matches_summed_instance_versions(self, untyped_schema):
        db = Database(untyped_schema)
        db.insert_all("Plain", [(i, 0) for i in range(80)])
        db.insert("Keyed", "x", 1)
        db.relation("Plain").delete(Row("Plain", (3, 0)))
        assert db.stats_version == sum(
            inst.stats.version for inst in db.relations()
        )

    def test_direct_instance_mutations_are_counted(self, untyped_schema):
        db = Database(untyped_schema)
        db.relation("Plain").insert((1, 1))
        assert db.stats_version == 1


class Recorder:
    """A row-change listener that records what it is told."""

    def __init__(self, db=None):
        self.events = []
        self.db = db

    def rows_changed(self, relation, values, phase):
        present = (
            None if self.db is None or values is None
            else Row(relation, values) in self.db.relation(relation)
        )
        self.events.append((relation, values, phase, present))


class TestRowChangeListeners:
    def test_phases_of_effective_changes(self, untyped_schema):
        db = Database(untyped_schema)
        recorder = Recorder(db)
        db.subscribe(recorder)
        db.insert("Plain", 1, 2)
        db.insert("Plain", 1, 2)  # set-semantics no-op: not reported
        db.delete("Plain", 1, 2)
        db.delete("Plain", 1, 2)  # absent: not reported
        # Deltas are computed on a state that contains the row: after
        # the insert, before the delete.
        assert recorder.events == [
            ("Plain", (1, 2), "inserted", True),
            ("Plain", (1, 2), "deleting", True),
            ("Plain", (1, 2), "deleted", False),
        ]

    def test_large_batch_reports_one_bulk_change(self, untyped_schema):
        db = Database(untyped_schema)
        recorder = Recorder()
        db.subscribe(recorder)
        db.insert_all("Plain", [(i, 0) for i in range(100)])
        assert recorder.events == [("Plain", None, "bulk", None)]
        db.insert_all("Plain", [(i, 1) for i in range(3)])
        assert [event[2] for event in recorder.events[1:]] == ["inserted"] * 3

    def test_listeners_are_held_weakly(self, untyped_schema):
        import gc
        db = Database(untyped_schema)
        db.subscribe(Recorder())
        gc.collect()
        db.insert("Plain", 1, 2)
        assert not db._listeners

    def test_versions_follow_each_relation(self, untyped_schema):
        db = Database(untyped_schema)
        assert db.versions(["Plain", "Keyed", "NoSuchView"]) == (
            ("Plain", 0), ("Keyed", 0),
        )
        db.insert("Plain", 1, 2)
        db.delete("Plain", 1, 2)
        assert db.versions(["Keyed", "Plain"]) == (("Keyed", 0), ("Plain", 2))


class TestClear:
    def test_clear_empties_every_index(self, untyped_schema):
        db = Database(untyped_schema)
        keyed = db.relation("Keyed")
        keyed.insert_many([(i, i % 2) for i in range(10)])
        keyed.lookup((1,), (0,))
        keyed.range_lookup(0, Interval(lo=3))
        keyed.composite_lookup((1,), (0,), 0, Interval(lo=3))
        keyed.clear()
        assert len(keyed) == 0 and keyed.stats.cardinality == 0
        assert keyed.lookup((1,), (0,)) == ()
        assert keyed.lookup_key((0,)) is None
        keyed.insert((0, 5))  # its old key is free again
        assert keyed.lookup((), ()) == [(0, 5)]
        assert keyed.range_lookup(0, Interval(lo=0)) == [(0, 5)]
        assert keyed.composite_lookup((1,), (5,), 0, Interval()) == [(0, 5)]

    def test_clear_moves_the_version_past_every_earlier_one(
        self, untyped_schema
    ):
        db = Database(untyped_schema)
        plain = db.relation("Plain")
        plain.insert_many([(1, 2), (3, 4)])
        seen = plain.stats.version
        plain.clear()
        assert plain.stats.version == seen + 2
        assert db.stats_version == 4
        plain.insert_many([(1, 2), (3, 4)])  # the same rows again
        assert plain.stats.version > seen + 2
        version = plain.stats.version
        db.relation("Keyed").clear()  # nothing to remove: no change
        plain.clear()
        plain.clear()
        assert plain.stats.version == version + 2

    def test_clear_reports_one_bulk_change(self, untyped_schema):
        db = Database(untyped_schema)
        recorder = Recorder()
        db.subscribe(recorder)
        db.insert("Plain", 1, 2)
        db.relation("Plain").clear()
        db.relation("Plain").clear()
        assert recorder.events == [
            ("Plain", (1, 2), "inserted", None),
            ("Plain", None, "bulk", None),
        ]


class TestViewStore:
    def test_arity_from_the_map_untyped_and_keyless(self):
        store = view_store({"V": 2, "W": 1})
        assert [r.schema.name for r in store.relations()] == ["V", "W"]
        assert store.relation("V").schema.arity == 2
        store.insert("V", 1, "a")
        store.insert("V", 1, 2.5)  # any hashable value, no key
        with pytest.raises(ArityError):
            store.insert("W", 1, 2)
        with pytest.raises(TypeMismatchError):
            store.insert("W", [1])  # unhashable

    def test_writes_move_no_other_database(self, database):
        store = view_store({"V": 1})
        store.insert("V", 1)
        store.relation("V").clear()
        assert database.stats_version == 0
        assert store.versions(["V", "Family"]) == (("V", 2),)


class TestCopyBulk:
    def test_copy_preserves_rows_and_order(self, untyped_schema):
        db = Database(untyped_schema)
        db.insert_all("Plain", [(i, i % 4) for i in range(120)])
        db.insert_all("Keyed", [(str(i), i) for i in range(90)])
        clone = db.copy()
        for name in ("Plain", "Keyed"):
            assert clone.relation(name).rows() == db.relation(name).rows()
            assert (
                clone.relation(name).stats._column_counts
                == db.relation(name).stats._column_counts
            )
        clone.insert("Plain", 999, 0)
        assert len(db.relation("Plain")) == 120

    def test_copy_tolerates_keyless_duplicate_free_load(self, untyped_schema):
        db = Database(untyped_schema)
        db.insert_all("Keyed", [(str(i), i) for i in range(70)])
        clone = db.copy()
        assert clone.relation("Keyed").lookup_key(("5",)) is not None


class TestSortedIndexes:
    """Sorted secondary indexes behind ordered access paths."""

    @pytest.fixture
    def numbers(self):
        schema = Schema([RelationSchema("N", ["a", "b"])])
        db = Database(schema)
        db.insert_all("N", [(i, i % 5) for i in range(20)])
        return db.relation("N")

    def test_range_lookup_half_open(self, numbers):
        from repro.relational.statistics import Interval

        rows = numbers.range_lookup(0, Interval(lo=3, hi=7, hi_open=True))
        assert [row[0] for row in rows] == [3, 4, 5, 6]

    def test_range_lookup_open_lo_and_unbounded_hi(self, numbers):
        from repro.relational.statistics import Interval

        rows = numbers.range_lookup(0, Interval(lo=17, lo_open=True))
        assert [row[0] for row in rows] == [18, 19]

    def test_equal_keys_keep_insertion_order(self, numbers):
        from repro.relational.statistics import Interval

        rows = numbers.range_lookup(1, Interval(lo=2, hi=2))
        assert [row[0] for row in rows] == [2, 7, 12, 17]

    def test_index_maintained_across_insert_and_delete(self, numbers):
        from repro.relational.statistics import Interval

        interval = Interval(lo=100, hi=200)
        assert numbers.range_lookup(0, interval) == []
        numbers.insert((150, 0))
        assert [row[0] for row in numbers.range_lookup(0, interval)] == [150]
        numbers.delete(Row("N", (150, 0)))
        assert numbers.range_lookup(0, interval) == []

    def test_mixed_type_column_returns_none(self):
        from repro.relational.statistics import Interval

        schema = Schema([RelationSchema("M", ["a"])])
        db = Database(schema)
        db.insert_all("M", [(1,), ("x",)])
        assert db.relation("M").range_lookup(0, Interval(lo=0)) is None

    def test_mixed_type_insert_invalidates_existing_index(self, numbers):
        from repro.relational.statistics import Interval

        assert numbers.range_lookup(0, Interval(lo=0, hi=3)) is not None
        numbers.insert(("zzz", 0))
        assert numbers.range_lookup(0, Interval(lo=0, hi=3)) is None

    def test_delete_after_mixed_type_allows_rebuild(self, numbers):
        from repro.relational.statistics import Interval

        numbers.insert(("zzz", 0))
        assert numbers.range_lookup(0, Interval(lo=0, hi=3)) is None
        numbers.delete(Row("N", ("zzz", 0)))
        rows = numbers.range_lookup(0, Interval(lo=0, hi=3))
        assert [row[0] for row in rows] == [0, 1, 2, 3]

    def test_incomparable_probe_returns_none(self, numbers):
        from repro.relational.statistics import Interval

        assert numbers.range_lookup(0, Interval(lo="x")) is None

    def test_nan_rows_never_match_ranges(self):
        from repro.relational.statistics import Interval

        nan = float("nan")
        schema = Schema([RelationSchema("M", ["a"])])
        db = Database(schema)
        db.insert_all("M", [(1.0,), (nan,), (2.0,)])
        rows = db.relation("M").range_lookup(0, Interval())
        assert [row[0] for row in rows] == [1.0, 2.0]

    def test_bulk_load_drops_and_rebuilds_sorted_index(self, numbers):
        from repro.relational.statistics import Interval

        assert numbers.range_lookup(0, Interval(lo=0, hi=1)) is not None
        numbers.insert_many([(i, 0) for i in range(100, 300)])
        rows = numbers.range_lookup(0, Interval(lo=100, hi=102))
        assert [row[0] for row in rows] == [100, 101, 102]


class TestCompositeIndexes:
    """Composite secondary indexes: hash buckets kept sorted for bisect."""

    @pytest.fixture
    def wide(self):
        schema = Schema([RelationSchema("W", ["ty", "k"])])
        db = Database(schema)
        db.insert_all(
            "W", [("hot" if i % 2 == 0 else "cold", i) for i in range(20)]
        )
        return db.relation("W")

    def test_composite_lookup_bisects_inside_bucket(self, wide):
        from repro.relational.statistics import Interval

        rows = wide.composite_lookup(
            (0,), ("hot",), 1, Interval(lo=4, hi=10, hi_open=True)
        )
        assert [row[1] for row in rows] == [4, 6, 8]

    def test_missing_bucket_is_empty_not_fallback(self, wide):
        from repro.relational.statistics import Interval

        assert wide.composite_lookup((0,), ("warm",), 1, Interval(lo=0)) == []

    def test_maintained_across_insert_and_delete(self, wide):
        from repro.relational.statistics import Interval

        interval = Interval(lo=100, hi=200)
        assert wide.composite_lookup((0,), ("hot",), 1, interval) == []
        wide.insert(("hot", 150))
        assert [
            row[1]
            for row in wide.composite_lookup((0,), ("hot",), 1, interval)
        ] == [150]
        wide.delete(Row("W", ("hot", 150)))
        assert wide.composite_lookup((0,), ("hot",), 1, interval) == []

    def test_insert_creates_new_bucket(self, wide):
        from repro.relational.statistics import Interval

        wide.ensure_composite_index((0,), 1)
        wide.insert(("warm", 7))
        rows = wide.composite_lookup((0,), ("warm",), 1, Interval(lo=0))
        assert [row[1] for row in rows] == [7]

    def test_delete_empties_bucket_to_missing(self, wide):
        from repro.relational.statistics import Interval

        wide.ensure_composite_index((0,), 1)
        wide.insert(("warm", 7))
        wide.delete(Row("W", ("warm", 7)))
        assert wide.composite_lookup((0,), ("warm",), 1, Interval(lo=0)) == []

    def test_nan_rows_never_enter_buckets(self):
        from repro.relational.statistics import Interval

        nan = float("nan")
        schema = Schema([RelationSchema("W", ["ty", "k"])])
        db = Database(schema)
        db.insert_all("W", [("hot", 1.0), ("hot", nan), ("hot", 2.0)])
        instance = db.relation("W")
        rows = instance.composite_lookup((0,), ("hot",), 1, Interval())
        assert [row[1] for row in rows] == [1.0, 2.0]
        # Incremental inserts skip NaN too.
        instance.insert(("hot", nan))
        rows = instance.composite_lookup((0,), ("hot",), 1, Interval())
        assert [row[1] for row in rows] == [1.0, 2.0]

    def test_mixed_type_bucket_degrades_alone(self):
        from repro.relational.statistics import Interval

        schema = Schema([RelationSchema("W", ["ty", "k"])])
        db = Database(schema)
        db.insert_all(
            "W", [("hot", 1), ("hot", "x"), ("cold", 2), ("cold", 3)]
        )
        instance = db.relation("W")
        # The mixed bucket reports unusable (caller falls back to hash)...
        assert (
            instance.composite_lookup((0,), ("hot",), 1, Interval(lo=0))
            is None
        )
        # ...while the clean bucket keeps serving composite probes.
        rows = instance.composite_lookup((0,), ("cold",), 1, Interval(lo=3))
        assert [row[1] for row in rows] == [3]

    def test_mixed_type_insert_degrades_bucket(self, wide):
        from repro.relational.statistics import Interval

        assert (
            wide.composite_lookup((0,), ("hot",), 1, Interval(lo=0))
            is not None
        )
        wide.insert(("hot", "zzz"))
        assert wide.composite_lookup((0,), ("hot",), 1, Interval(lo=0)) is None
        # Other buckets are unaffected.
        assert (
            wide.composite_lookup((0,), ("cold",), 1, Interval(lo=0))
            is not None
        )

    def test_delete_after_mixed_type_allows_rebuild(self, wide):
        from repro.relational.statistics import Interval

        wide.insert(("hot", "zzz"))
        assert wide.composite_lookup((0,), ("hot",), 1, Interval(lo=0)) is None
        wide.delete(Row("W", ("hot", "zzz")))
        rows = wide.composite_lookup(
            (0,), ("hot",), 1, Interval(lo=0, hi=4, hi_open=True)
        )
        assert [row[1] for row in rows] == [0, 2]

    def test_incomparable_probe_returns_none(self, wide):
        from repro.relational.statistics import Interval

        assert (
            wide.composite_lookup((0,), ("hot",), 1, Interval(lo="x")) is None
        )

    def test_bulk_load_drops_and_rebuilds_composite_index(self, wide):
        from repro.relational.statistics import Interval

        assert (
            wide.composite_lookup((0,), ("hot",), 1, Interval(lo=0))
            is not None
        )
        wide.insert_many([("hot", i) for i in range(100, 300)])
        rows = wide.composite_lookup((0,), ("hot",), 1, Interval(lo=100, hi=104))
        assert [row[1] for row in rows] == [100, 101, 102, 103, 104]

    def test_equal_order_keys_keep_insertion_order(self):
        from repro.relational.statistics import Interval

        schema = Schema([RelationSchema("W", ["ty", "k", "i"])])
        db = Database(schema)
        db.insert_all(
            "W",
            [("hot", 5, 0), ("hot", 5, 1), ("cold", 5, 2), ("hot", 5, 3)],
        )
        rows = db.relation("W").composite_lookup(
            (0,), ("hot",), 1, Interval(lo=5, hi=5)
        )
        assert [row[2] for row in rows] == [0, 1, 3]

    def test_multi_position_hash_component(self):
        from repro.relational.statistics import Interval

        schema = Schema([RelationSchema("W", ["a", "b", "k"])])
        db = Database(schema)
        db.insert_all(
            "W", [(i % 2, i % 3, i) for i in range(30)]
        )
        rows = db.relation("W").composite_lookup(
            (0, 1), (1, 2), 2, Interval(lo=0, hi=12, hi_open=True)
        )
        assert [row[2] for row in rows] == [5, 11]


class TestRow:
    def test_equality_includes_relation(self):
        assert Row("R", (1, 2)) != Row("S", (1, 2))
        assert Row("R", (1, 2)) == Row("R", (1, 2))

    def test_hashable(self):
        assert len({Row("R", (1,)), Row("R", (1,))}) == 1

    def test_project(self):
        row = Row("R", ("a", "b", "c"))
        assert row.project((2, 0)) == ("c", "a")

    def test_iteration_and_len(self):
        row = Row("R", (1, 2, 3))
        assert list(row) == [1, 2, 3]
        assert len(row) == 3
