"""The planned executor against the one oracle, on GtoPdb-shaped data.

:func:`~repro.cq.evaluation.reference_bindings` is the executable
specification of CQ evaluation.  The citation model cites per binding
(Defs 3.1/3.2), so the planned executor must reproduce the oracle's
binding *multiset*, not just its deduplicated head rows.  The integer
strategies of ``tests/properties/test_planner_equivalence.py`` never
draw the string-valued, foreign-key-linked GtoPdb schema; these cases
do.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.evaluation import (
    enumerate_bindings,
    evaluate_query,
    reference_bindings,
)
from repro.cq.parser import parse_query
from repro.errors import QueryError
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.sample import paper_database
from repro.workload.queries import QueryGenerator


@pytest.fixture(scope="module")
def db():
    return paper_database()


def binding_key(binding):
    return tuple(sorted((var.name, value) for var, value in binding.items()))


def cross_check(query, db):
    """Assert planned ≡ reference as binding multisets; return the rows."""
    planned = Counter(binding_key(b) for b in enumerate_bindings(query, db))
    reference = Counter(binding_key(b) for b in reference_bindings(query, db))
    assert planned == reference, query
    return sorted(evaluate_query(query, db))


class TestHandWrittenShapes:
    def test_single_atom(self, db):
        cross_check(parse_query("Q(N) :- Family(F, N, Ty)"), db)

    def test_join(self, db):
        cross_check(
            parse_query("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)"),
            db,
        )

    def test_selection(self, db):
        rows = cross_check(
            parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"'), db
        )
        assert ("Calcitonin",) in rows

    def test_inline_constant(self, db):
        assert cross_check(parse_query('Q(N) :- Family("11", N, Ty)'), db)

    def test_repeated_variable_in_atom(self, db):
        db2 = paper_database()
        db2.insert("MetaData", "same", "same")
        assert cross_check(parse_query("Q(T) :- MetaData(T, T)"), db2) == [
            ("same",),
        ]

    def test_three_way_join(self, db):
        assert cross_check(
            parse_query(
                "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
            ),
            db,
        )

    def test_variable_comparison(self, db):
        assert cross_check(
            parse_query("Q(F1, F2) :- Family(F1, N1, Ty), "
                        "Family(F2, N2, Ty), F1 < F2"),
            db,
        )

    def test_ground_false_comparison(self, db):
        query = parse_query("Q(N) :- Family(F, N, Ty), 2 < 1")
        assert list(reference_bindings(query, db)) == []
        assert cross_check(query, db) == []


class TestRejections:
    def test_parameterized_rejected(self, db):
        with pytest.raises(QueryError):
            list(reference_bindings(
                parse_query("lambda F. V(F, N) :- Family(F, N, Ty)"), db
            ))


class TestRandomGtopdb:
    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_planned_bindings_equal_reference(self, seed):
        db = GtopdbGenerator(families=10, persons=6, types=3,
                             seed=seed % 13).build()
        generator = QueryGenerator(db.schema, db, seed=seed, max_atoms=3)
        cross_check(generator.generate(), db)
