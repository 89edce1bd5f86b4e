"""Tests for the stable-coded query diagnostics (repro.analysis)."""

import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Diagnostic,
    analyze_query,
    analyze_union,
    check_relations,
    has_errors,
    render_diagnostics,
)
from repro.cq.atoms import ComparisonAtom
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant
from repro.cq.ucq import UnionQuery, parse_union_query
from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema


@pytest.fixture
def db():
    schema = Schema([
        RelationSchema("Big", ["a", "b"]),
        RelationSchema("Small", ["b", "c"]),
        RelationSchema("Names", ["n"]),
    ])
    db = Database(schema)
    db.insert_all("Big", [(i, i % 50) for i in range(200)])
    db.insert_all("Small", [(1, 100), (2, 200)])
    db.insert_all("Names", [("ada",), ("grace",)])
    return db


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestErrors:
    def test_contradictory_equalities_qa201(self, db):
        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        diagnostics = analyze_query(q, db)
        assert "QA201" in codes(diagnostics)
        assert has_errors(diagnostics)

    def test_empty_interval_qa202(self, db):
        q = parse_query("Q(A) :- Big(A, B), B > 5, B < 2")
        assert "QA202" in codes(analyze_query(q, db))

    def test_false_ground_comparison_qa203(self, db):
        q = parse_query("Q(A) :- Big(A, B), 1 = 2")
        assert "QA203" in codes(analyze_query(q, db))

    def test_errors_sort_first(self, db):
        q = parse_query("Q(A) :- Big(A, C), Small(B, D), B = 1, B = 2")
        diagnostics = analyze_query(q, db)
        assert diagnostics[0].severity == "error"

    def test_transitive_contradiction(self, db):
        q = parse_query("Q(A) :- Big(A, B), Small(B, C), B = 1, C = B, C = 2")
        assert "QA201" in codes(analyze_query(q, db))


class TestWarnings:
    def test_cartesian_product_qa101(self, db):
        q = parse_query("Q(A, C) :- Big(A, X), Small(C, Y)")
        diagnostics = analyze_query(q, db)
        assert "QA101" in codes(diagnostics)
        finding = next(d for d in diagnostics if d.code == "QA101")
        assert finding.step is not None
        assert not has_errors(diagnostics)

    def test_joined_query_has_no_qa101(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        assert "QA101" not in codes(analyze_query(q, db))

    def test_dangling_atom_qa103(self, db):
        q = parse_query("Q(A) :- Big(A, B), Names(N)")
        assert "QA103" in codes(analyze_query(q, db))

    def test_single_atom_is_not_dangling(self, db):
        q = parse_query("Q(A) :- Big(A, B)")
        assert "QA103" not in codes(analyze_query(q, db))

    def test_single_use_variable_qa104(self, db):
        q = parse_query("Q(A) :- Big(A, B)")
        assert "QA104" in codes(analyze_query(q, db))

    def test_underscore_variables_exempt_from_qa104(self, db):
        q = parse_query("Q(A) :- Big(A, _B)")
        assert "QA104" not in codes(analyze_query(q, db))

    def test_head_variables_exempt_from_qa104(self, db):
        q = parse_query("Q(A, B) :- Big(A, B)")
        assert "QA104" not in codes(analyze_query(q, db))

    def test_mixed_type_constant_qa105(self, db):
        # Names.n holds strings; comparing against a number is a
        # run-time MixedTypeComparisonWarning waiting to happen.
        q = parse_query("Q(N) :- Names(N), N > 5")
        assert "QA105" in codes(analyze_query(q, db))

    def test_well_typed_range_has_no_qa105(self, db):
        q = parse_query("Q(A) :- Big(A, B), B > 5")
        assert "QA105" not in codes(analyze_query(q, db))

    def test_without_db_only_static_checks_run(self):
        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        diagnostics = analyze_query(q)
        assert "QA201" in codes(diagnostics)
        assert "QA101" not in codes(diagnostics)
        assert "QA105" not in codes(diagnostics)


class TestUnions:
    def test_subsumed_disjunct_qa102(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(A) :- Big(A, B)"
        )
        diagnostics = analyze_union(union, db)
        finding = next(d for d in diagnostics if d.code == "QA102")
        assert finding.disjunct == 0
        assert "disjunct 1" in finding.message

    def test_equivalent_disjuncts_keep_first(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(X) :- Big(X, Y), Y = 1"
        )
        diagnostics = analyze_union(union, db)
        flagged = [d.disjunct for d in diagnostics if d.code == "QA102"]
        assert flagged == [1]

    def test_empty_disjunct_demoted_to_qa110(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1, B = 2\nQ(A) :- Big(A, B)"
        )
        diagnostics = analyze_union(union, db)
        assert "QA110" in codes(diagnostics)
        assert not has_errors(diagnostics)

    def test_all_disjuncts_empty_qa204(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1, B = 2\n"
            "Q(A) :- Big(A, B), B > 5, B < 2"
        )
        diagnostics = analyze_union(union, db)
        assert "QA204" in codes(diagnostics)
        assert has_errors(diagnostics)

    def test_healthy_union_is_clean(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(A) :- Small(A, B), B = 100"
        )
        diagnostics = analyze_union(union, db)
        assert not has_errors(diagnostics)
        assert "QA102" not in codes(diagnostics)


class TestRendering:
    def test_describe_carries_code_and_location(self):
        finding = Diagnostic("QA101", "warning", "boom", step=2, disjunct=1)
        text = finding.describe()
        assert "QA101" in text
        assert "[disjunct 1]" in text
        assert "[step 2]" in text

    def test_render_diagnostics_empty(self):
        assert render_diagnostics([]) == "no findings"

    def test_explain_appends_diagnostics(self, db):
        from repro.cq.plan import plan_query

        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        plan = plan_query(q, db)
        text = plan.explain(diagnostics=analyze_query(q, db))
        assert "diagnostics:" in text
        assert "QA201" in text

    def test_union_explain_appends_diagnostics(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(A) :- Big(A, B)"
        )
        text = union.explain(db, diagnostics=analyze_union(union, db))
        assert "diagnostics:" in text
        assert "QA102" in text

    def test_at_least_six_diagnostic_classes(self, db):
        # The stable code table must cover >= 6 distinct classes.
        seen = set()
        q1 = parse_query("Q(A, C) :- Big(A, X), Small(C, Y)")
        seen.update(codes(analyze_query(q1, db)))
        q2 = parse_query("Q(A) :- Big(A, B), Names(N), B = 1, B = 2")
        seen.update(codes(analyze_query(q2, db)))
        q3 = parse_query("Q(N) :- Names(N), N > 5")
        seen.update(codes(analyze_query(q3, db)))
        q4 = parse_query("Q(A) :- Big(A, B), B > 5, B < 2")
        seen.update(codes(analyze_query(q4, db)))
        q5 = parse_query("Q(A) :- Big(A, B), 1 = 2")
        seen.update(codes(analyze_query(q5, db)))
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1, B = 2\nQ(A) :- Big(A, B), B > 9, B < 2"
        )
        seen.update(codes(analyze_union(union, db)))
        assert len(seen) >= 6


class TestWorkloadIntegration:
    def test_run_workload_aggregates_diagnostics(self, db):
        from repro.citation.generator import CitationEngine
        from repro.views.citation_view import CitationView
        from repro.views.registry import ViewRegistry
        from repro.workload.runner import run_workload

        view = CitationView.from_strings(
            view="lambda A. V1(A, B) :- Big(A, B)",
            citation_query="lambda A. CV1(A, B) :- Big(A, B)",
        )
        engine = CitationEngine(
            db, ViewRegistry(db.schema, [view])
        )
        report = run_workload(
            engine,
            [
                "Q(A) :- Big(A, B), B = 1, B = 2",
                "Q(A) :- Big(A, B), B = 1",
            ],
            analyze=True,
        )
        assert report.diagnostics.get("QA201") == 1
        assert "diagnostics:" in report.describe()
        assert "QA201=1" in report.describe()

    def test_run_workload_without_analyze_is_silent(self, db):
        from repro.citation.generator import CitationEngine
        from repro.views.citation_view import CitationView
        from repro.views.registry import ViewRegistry
        from repro.workload.runner import run_workload

        view = CitationView.from_strings(
            view="lambda A. V1(A, B) :- Big(A, B)",
            citation_query="lambda A. CV1(A, B) :- Big(A, B)",
        )
        engine = CitationEngine(db, ViewRegistry(db.schema, [view]))
        report = run_workload(engine, ["Q(A) :- Big(A, B), B = 1"])
        assert report.diagnostics == {}
        assert "diagnostics" not in report.describe()


def _planner_strategies():
    """The planner-equivalence suite's query and instance strategies."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    try:
        return importlib.import_module("test_planner_equivalence")
    finally:
        sys.path.pop(0)


PLANNER = _planner_strategies()
#: The comparison operators drawn on top of the planner's queries.
OPS = [ComparisonOp.EQ, ComparisonOp.LT, ComparisonOp.LE]


@st.composite
def compared_queries(draw):
    """A planner query with drawn ``=``/``<``/``<=`` comparisons against
    mixed-type constants, sometimes a contradictory pair among them."""
    query = draw(PLANNER.queries())
    variables = sorted({v for atom in query.atoms for v in atom.variables()})
    if not variables:
        return query
    comparisons = list(query.comparisons)
    values = PLANNER.MIXED_VALUES

    def compare(var, op, value, flipped):
        constant = Constant(value)
        comparisons.append(
            ComparisonAtom(constant, op, var) if flipped
            else ComparisonAtom(var, op, constant)
        )

    for __ in range(draw(st.integers(0, 3))):
        compare(draw(st.sampled_from(variables)), draw(st.sampled_from(OPS)),
                draw(values), draw(st.booleans()))
    if draw(st.booleans()):
        var = draw(st.sampled_from(variables))
        first, second = draw(st.lists(values, min_size=2, max_size=2))
        if draw(st.booleans()):
            compare(var, ComparisonOp.EQ, first, False)
            compare(var, ComparisonOp.EQ, second, draw(st.booleans()))
        else:
            # var < first together with first <= var.
            compare(var, ComparisonOp.LT, first, False)
            compare(var, ComparisonOp.LE, first, True)
    return ConjunctiveQuery(query.name, query.head, query.atoms, comparisons)


@st.composite
def compared_unions(draw):
    disjuncts = [
        draw(compared_queries())
        for __ in range(draw(st.integers(2, 3)))
    ]
    arity = min(len(disjunct.head) for disjunct in disjuncts)
    return UnionQuery([
        ConjunctiveQuery(d.name, d.head[:arity], d.atoms, d.comparisons)
        for d in disjuncts
    ])


def errors(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


@settings(max_examples=300, deadline=None)
@given(
    db=PLANNER.mixed_databases(),
    query=st.one_of(compared_queries(), compared_unions()),
)
def test_refusal_does_not_depend_on_the_database(db, query):
    """The service refuses a query (422) from ``analyze_*(query)`` alone:
    the database adds warnings, never an error.  Where the analysis over
    the database raises (an atom over the planner's virtual ``VR`` is an
    unknown relation here), ``check_relations`` over the schema raises
    the same, and nowhere else, so the service's 400 replies do not
    change; citing alone would not, because the rewriter plans nothing
    for some queries it proves empty."""
    analyze = analyze_union if isinstance(query, UnionQuery) else analyze_query
    alone = analyze(query)
    try:
        with_db = analyze(query, db)
    except ReproError as exc:
        assert not has_errors(alone)
        with pytest.raises(ReproError) as checked:
            check_relations(query, db.schema)
        assert type(checked.value) is type(exc)
        assert str(checked.value) == str(exc)
        return
    check_relations(query, db.schema)
    assert errors(with_db) == errors(alone)
