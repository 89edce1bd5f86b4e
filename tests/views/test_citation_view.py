"""Tests for the citation-view triple (Def 2.1)."""

import pytest

from repro.cq.parser import parse_query
from repro.errors import ParameterError, ViewError
from repro.views.citation_view import (
    CitationView,
    RecordCitationFunction,
    default_citation_function,
    pinned_queries,
)


class TestConstruction:
    def test_from_strings(self):
        view = CitationView.from_strings(
            view="lambda F. V1(F, N, Ty) :- Family(F, N, Ty)",
            citation_query=(
                "lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), "
                "Person(C, Pn, A)"
            ),
            labels=("ID", "Name", "Committee"),
        )
        assert view.name == "V1"
        assert [p.name for p in view.parameters] == ["F"]

    def test_parameter_names_must_match(self):
        with pytest.raises(ParameterError):
            CitationView.from_strings(
                view="lambda F. V(F, N) :- Family(F, N, Ty)",
                citation_query="lambda G. CV(G, N) :- Family(G, N, Ty)",
            )

    def test_parameter_must_be_head_variable(self):
        # Def 2.1 requires X ⊆ Y for the view definition.
        with pytest.raises(ViewError):
            CitationView.from_strings(
                view="lambda Ty. V(F, N) :- Family(F, N, Ty)",
                citation_query="lambda Ty. CV(N) :- Family(F, N, Ty)",
            )

    def test_citation_query_parameter_need_not_be_head(self):
        # For C_V the paper only requires X ⊆ vars(Q').
        CitationView.from_strings(
            view="lambda F. V(F, N) :- Family(F, N, Ty)",
            citation_query="lambda F. CV(N) :- Family(F, N, Ty)",
        )

    def test_label_count_checked(self):
        with pytest.raises(ViewError):
            CitationView.from_strings(
                view="V(F) :- Family(F, N, Ty)",
                citation_query="CV(F, N) :- Family(F, N, Ty)",
                labels=("one",),
            )

    def test_default_labels(self):
        view = CitationView.from_strings(
            view="V(F) :- Family(F, N, Ty)",
            citation_query="CV(F, N) :- Family(F, N, Ty)",
        )
        assert view.labels == ("col0", "col1")

    def test_parameter_positions(self):
        view = CitationView.from_strings(
            view="lambda Ty, F. V(F, N, Ty) :- Family(F, N, Ty)",
            citation_query="lambda Ty, F. CV(Ty) :- Family(F, N, Ty)",
        )
        assert view.parameter_positions() == (2, 0)


class TestSemantics:
    def test_instance_with_params(self, db, registry):
        v1 = registry.get("V1")
        assert v1.instance(db, ["11"]) == [("11", "Calcitonin", "gpcr")]

    def test_instance_unparameterized_extension(self, db, registry):
        v1 = registry.get("V1")
        assert len(v1.instance(db)) == len(db.relation("Family"))

    def test_citation_rows(self, db, registry):
        v1 = registry.get("V1")
        rows = v1.citation_rows(db, ["11"])
        names = {row[2] for row in rows}
        assert names == {"Hay", "Poyner"}

    def test_citation_for_wrong_arity(self, db, registry):
        with pytest.raises(ParameterError):
            registry.get("V1").citation_for(db, ())

    def test_citation_for_empty_instance(self, db, registry):
        record = registry.get("V1").citation_for(db, ("no-such-family",))
        assert record == {}


class TestCitationFunctions:
    def test_default_folds_multivalued_columns(self):
        rows = [("11", "Calcitonin", "Hay"), ("11", "Calcitonin", "Poyner")]
        record = default_citation_function(
            rows, ("ID", "Name", "Committee"), {}
        )
        assert record == {"ID": "11", "Name": "Calcitonin",
                          "Committee": ["Hay", "Poyner"]}

    def test_default_empty_rows(self):
        assert default_citation_function([], ("A",), {}) == {}

    def test_record_function_forces_lists(self):
        fn = RecordCitationFunction(list_fields=("Committee",))
        record = fn([("11", "Hay")], ("ID", "Committee"), {})
        assert record == {"ID": "11", "Committee": ["Hay"]}

    def test_record_function_constant_fields(self):
        fn = RecordCitationFunction(constant_fields={"Database": "GtoPdb"})
        record = fn([("11",)], ("ID",), {})
        assert record["Database"] == "GtoPdb"

    def test_unsortable_values_fall_back_to_repr_order(self):
        record = default_citation_function(
            [(1,), ("a",)], ("Mixed",), {}
        )
        assert len(record["Mixed"]) == 2


class TestHoistedParameterlessQueries:
    """Regression: the zero-param extension queries must be derived once
    at construction, not rebuilt by ``with_parameters(())`` per call."""

    def test_extension_queries_cached_on_construction(self, registry):
        v1 = registry.get("V1")
        assert v1._view_extension is v1._view_extension
        assert not v1._view_extension.is_parameterized
        assert not v1._citation_extension.is_parameterized
        # Unparameterized views reuse the original query objects.
        v3 = registry.get("V3")
        assert v3._view_extension is v3.view
        assert v3._citation_extension is v3.citation_query

    def test_zero_param_calls_reuse_the_cached_query(self, db, registry):
        from repro.cq.plan import QueryPlanner

        v1 = registry.get("V1")
        planner = QueryPlanner(db)
        first = v1.instance(db, planner=planner)
        assert v1.instance(db, planner=planner) == first
        # Object-identical queries ride the planner's exact-match fast
        # path: the repeat is a pure hit, with no new entry.
        assert planner.hits >= 1
        assert planner.misses == 1

    def test_planned_instance_equals_unplanned(self, db, registry):
        from repro.cq.plan import QueryPlanner

        planner = QueryPlanner(db)
        for name in registry.names:
            view = registry.get(name)
            assert view.instance(db, planner=planner) == view.instance(db)
            assert (
                view.citation_rows(db, planner=planner)
                == view.citation_rows(db)
            )

    def test_materialize_accepts_planner(self, db, registry):
        from repro.cq.plan import QueryPlanner

        planner = QueryPlanner(db)
        assert registry.materialize(db, planner=planner) == \
            registry.materialize(db)
        assert planner.misses > 0


class TestRowDeltas:
    def test_scan_views(self, registry):
        # V1-V4 are one atom over distinct head variables; V5 joins.
        assert [view.is_scan for view in registry] == [
            True, True, True, True, False,
        ]
        assert not CitationView.from_strings(
            "V(F) :- Family(F, N, Ty)", "CV(F) :- Family(F, N, Ty)"
        ).is_scan
        assert not CitationView.from_strings(
            "V(F, N) :- Family(F, N, N)", "CV(F) :- Family(F, N, Ty)"
        ).is_scan
        assert not CitationView.from_strings(
            'V(F, N, Ty) :- Family(F, N, Ty), Ty = "gpcr"',
            "CV(F) :- Family(F, N, Ty)",
        ).is_scan

    def test_pinned_queries_skip_rows_the_atom_contradicts(self):
        query = parse_query(
            'Q(X, Y) :- R(X, X, "c"), R(X, Y, Z), S(Y)'
        )
        pinned = list(pinned_queries(query, "R", (1, 1, "c")))
        assert [repr(q) for q in pinned] == [
            'Q(1, Y) :- R(1, 1, "c"), R(1, Y, Z), S(Y)',
            'Q(1, 1) :- R(1, 1, "c"), R(1, 1, "c"), S(1)',
        ]
        # Repeated variable bound to two values, constant mismatch.
        assert [repr(q) for q in pinned_queries(query, "R", (1, 2, "c"))] \
            == ['Q(1, 2) :- R(1, 1, "c"), R(1, 2, "c"), S(2)']
        assert list(pinned_queries(query, "S", (1, 2))) == []

    def test_delta_and_stale_parameters(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        db.insert("FC", "13", "p1")
        v1, v3, v4 = (registry.get(name) for name in ("V1", "V3", "V4"))
        assert v1.delta(db, "FC", ("13", "p1")) == []
        assert v1.delta(db, "Family", ("13", "b", "gpcr")) == [
            ("13", "b", "gpcr"),
        ]
        assert v1.stale_parameters(db, "FC", ("13", "p1")) == [("13",)]
        assert v4.stale_parameters(db, "FC", ("13", "p1")) == [("gpcr",)]
        assert v4.stale_parameters(db, "FC", ("99", "p1")) == []
        assert v3.stale_parameters(db, "MetaData", ("URL", "x")) == []
        assert v3.stale_parameters(
            db, "MetaData", ("URL", "guidetopharmacology.org")
        ) == [()]
