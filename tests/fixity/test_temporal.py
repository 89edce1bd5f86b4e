"""Tests for timestamp-as-λ-parameter fixity (Section 4's sketch)."""

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import comprehensive_policy, focused_policy
from repro.citation.tokens import ViewCitationToken
from repro.cq.parser import parse_query
from repro.fixity.temporal import (
    VTAG,
    lift_database,
    lift_registry,
    lift_schema,
    lift_view,
    tag_query,
)
from repro.gtopdb.sample import paper_database
from repro.gtopdb.schema import gtopdb_schema
from repro.gtopdb.views import paper_registry
from repro.relational.database import Database


@pytest.fixture(scope="module")
def snapshots():
    old = Database(gtopdb_schema())
    old.insert("Family", "11", "Calcitonin", "gpcr")
    old.insert("Person", "p1", "Hay", "x")
    old.insert("FC", "11", "p1")
    old.insert("MetaData", "Owner", "Tony Harmar")
    old.insert("MetaData", "URL", "u")
    old.insert("MetaData", "Version", "22")
    return [("2015.1", old), ("2016.2", paper_database())]


@pytest.fixture(scope="module")
def temporal(snapshots):
    return lift_database(snapshots)


@pytest.fixture(scope="module")
def lifted_registry():
    return lift_registry(paper_registry())


class TestLiftSchema:
    def test_vtag_appended(self):
        lifted = lift_schema(gtopdb_schema())
        family = lifted.relation("Family")
        assert family.attribute_names[-1] == VTAG
        assert family.key == ("FID", VTAG)

    def test_unkeyed_relations_stay_unkeyed(self):
        from repro.relational.schema import RelationSchema, Schema
        lifted = lift_schema(Schema([RelationSchema("R", ["a"])]))
        assert lifted.relation("R").key == ()


class TestLiftDatabase:
    def test_rows_tagged(self, temporal):
        tags = {row.values[-1] for row in temporal.relation("Family")}
        assert tags == {"2015.1", "2016.2"}

    def test_same_key_in_two_versions_allowed(self, temporal):
        rows = [
            row for row in temporal.relation("Family")
            if row[0] == "11"
        ]
        assert len(rows) == 2

    def test_empty_snapshot_list_rejected(self):
        with pytest.raises(ValueError):
            lift_database([])


class TestLiftView:
    def test_timestamp_becomes_lambda(self, lifted_registry):
        v1 = lifted_registry.get("V1")
        assert [p.name for p in v1.parameters] == ["F", "T"]
        assert v1.view.head[-1].name == "T"
        assert v1.labels[-1] == VTAG

    def test_unparameterized_view_gains_timestamp(self, lifted_registry):
        v3 = lifted_registry.get("V3")
        assert [p.name for p in v3.parameters] == ["T"]

    def test_fresh_timestamp_variable_avoids_clash(self):
        from repro.views.citation_view import CitationView
        view = CitationView.from_strings(
            view="lambda T. V(T, N) :- Family(T, N, Ty)",
            citation_query="lambda T. CV(T, N) :- Family(T, N, Ty)",
        )
        lifted = lift_view(view)
        names = [p.name for p in lifted.parameters]
        assert len(names) == len(set(names)) == 2

    def test_instantiation_reads_one_version(self, temporal,
                                             lifted_registry):
        v1 = lifted_registry.get("V1")
        assert v1.citation_for(temporal, ("11", "2015.1"))["Committee"] \
            == ["Hay"]
        assert v1.citation_for(temporal, ("11", "2016.2"))["Committee"] \
            == ["Hay", "Poyner"]


class TestTagQuery:
    def test_tagging_appends_constant(self):
        q = parse_query("Q(N) :- Family(F, N, Ty)")
        tagged = tag_query(q, "2016.2")
        assert repr(tagged.atoms[0].terms[-1]) == '"2016.2"'

    def test_citations_vary_per_tag(self, temporal, lifted_registry):
        engine = CitationEngine(temporal, lifted_registry,
                                policy=comprehensive_policy(),
                                database_citation=[])
        q = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        per_tag = {}
        for tag in ("2015.1", "2016.2"):
            result = engine.cite(tag_query(q, tag))
            tokens = {
                t for tc in result.tuples.values()
                for m in tc.polynomial.monomials() for t in m.tokens()
            }
            per_tag[tag] = tokens
        assert ViewCitationToken("V1", ("11", "2015.1")) \
            in per_tag["2015.1"]
        assert ViewCitationToken("V1", ("11", "2016.2")) \
            in per_tag["2016.2"]
        assert per_tag["2015.1"] != per_tag["2016.2"]

    def test_timestamp_absorbed_like_example_22(self, temporal,
                                                lifted_registry):
        """The tag constant is absorbed into the lifted λ exactly like
        Ty="gpcr" in Example 2.2."""
        from repro.rewriting.engine import enumerate_rewritings
        q = tag_query(parse_query("Q(N) :- Family(F, N, Ty)"), "2016.2")
        rewritings = enumerate_rewritings(q, lifted_registry)
        assert rewritings
        assert all(r.absorbed_parameter_count >= 1 for r in rewritings)

    def test_focused_policy_on_temporal(self, temporal, lifted_registry):
        engine = CitationEngine(
            temporal, lifted_registry,
            policy=focused_policy(lifted_registry),
            database_citation=[],
        )
        q = parse_query(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"'
        )
        result = engine.cite(tag_query(q, "2016.2"))
        assert result.tuples
        # The single preferred citation carries the version parameter.
        monomial = result.aggregate_polynomial.monomials()[0]
        token = monomial.tokens()[0]
        assert token.parameters == ("gpcr", "2016.2")


class TestTemporalCitationEngine:
    @pytest.fixture()
    def engine(self, snapshots):
        from repro.fixity.temporal import TemporalCitationEngine

        return TemporalCitationEngine(
            gtopdb_schema(),
            registry=paper_registry(),
            snapshots=snapshots,
        )

    QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'

    def test_tags_in_registration_order(self, engine):
        assert engine.tags == ("2015.1", "2016.2")

    def test_duplicate_tag_rejected(self, engine):
        from repro.errors import VersionError

        with pytest.raises(VersionError):
            engine.register_snapshot("2015.1", paper_database())

    def test_unknown_tag_rejected(self, engine):
        from repro.errors import VersionError

        with pytest.raises(VersionError):
            engine.evaluate(self.QUERY, "no-such-tag")

    def test_evaluation_pinned_per_tag(self, engine):
        from repro.cq.evaluation import evaluate_query

        old = engine.evaluate(self.QUERY, "2015.1")
        new = engine.evaluate(self.QUERY, "2016.2")
        assert set(old) == {("Calcitonin",)}
        assert set(new) == set(
            evaluate_query(parse_query(self.QUERY), paper_database())
        )

    def test_plans_cached_per_query_and_tag(self, engine):
        engine.evaluate(self.QUERY, "2015.1")
        misses = engine.planner.misses
        engine.evaluate(self.QUERY, "2015.1")
        assert engine.planner.misses == misses  # warm repeat
        engine.evaluate(self.QUERY, "2016.2")
        assert engine.planner.misses == misses + 1  # new tag, new plan

    def test_snapshot_registration_invalidates(self, engine):
        before = engine.evaluate(self.QUERY, "2015.1")
        extra = Database(gtopdb_schema())
        extra.insert("Family", "77", "Extra", "gpcr")
        loaded = engine.register_snapshot("2017.1", extra)
        assert loaded == 1
        assert set(engine.evaluate(self.QUERY, "2017.1")) == {("Extra",)}
        assert engine.evaluate(self.QUERY, "2015.1") == before

    def test_registration_on_a_warm_engine_runs_no_delta_query(
        self, engine, monkeypatch
    ):
        from repro.views.citation_view import CitationView

        engine.cite(self.QUERY, "2016.2")
        calls = []
        for name in ("delta", "stale_parameters"):
            monkeypatch.setattr(
                CitationView, name, lambda *args: calls.append(args) or []
            )
        engine.register_snapshot("2018.1", paper_database())
        assert calls == []
        assert engine.citation_engine.database_citation == []
        result = engine.cite(self.QUERY, "2018.1")
        assert [r for r in result.records if r.get(VTAG) == "2018.1"]

    def test_explain_names_the_tag(self, engine):
        rendered = engine.explain(self.QUERY, "2015.1")
        assert rendered.startswith("as of '2015.1':")
        assert "2015.1" in rendered

    def test_cite_stamps_the_tag(self, engine):
        result = engine.cite(self.QUERY, "2015.1")
        stamped = [r for r in result.records if r.get(VTAG) == "2015.1"]
        assert stamped

    def test_cite_requires_registry(self, snapshots):
        from repro.errors import VersionError
        from repro.fixity.temporal import TemporalCitationEngine

        bare = TemporalCitationEngine(
            gtopdb_schema(), snapshots=snapshots[:1]
        )
        with pytest.raises(VersionError):
            bare.cite(self.QUERY, "2015.1")
