"""Tests for versioned databases and version-stamped citations."""

import gc
import weakref

import pytest

from repro.errors import VersionError
from repro.fixity.versioned import (
    MAX_HELD_VERSIONS,
    VersionedCitationEngine,
    VersionedDatabase,
)
from repro.gtopdb.schema import gtopdb_schema
from repro.gtopdb.views import paper_registry


@pytest.fixture
def vdb():
    versioned = VersionedDatabase(gtopdb_schema(), initial_tag="genesis")
    versioned.insert("Family", "11", "Calcitonin", "gpcr")
    versioned.insert("Person", "p1", "Hay", "U. Auckland")
    versioned.insert("FC", "11", "p1")
    versioned.commit("r1")
    versioned.insert("Person", "p2", "Poyner", "Aston U.")
    versioned.insert("FC", "11", "p2")
    versioned.commit("r2")
    versioned.delete("FC", "11", "p1")
    versioned.commit("r3")
    return versioned


class TestVersioning:
    def test_versions_ordered(self, vdb):
        tags = [v.tag for v in vdb.versions]
        assert tags == ["genesis", "r1", "r2", "r3"]

    def test_as_of_initial_is_empty(self, vdb):
        assert vdb.as_of("genesis").total_rows() == 0

    def test_as_of_reconstructs_each_state(self, vdb):
        assert len(vdb.as_of("r1").relation("FC")) == 1
        assert len(vdb.as_of("r2").relation("FC")) == 2
        assert len(vdb.as_of("r3").relation("FC")) == 1

    def test_delete_reflected_in_reconstruction(self, vdb):
        fc_r3 = {row.values for row in vdb.as_of("r3").relation("FC")}
        assert fc_r3 == {("11", "p2")}

    def test_resolve_by_number_and_tag(self, vdb):
        assert vdb.resolve("r2") == vdb.resolve(2)
        assert vdb.resolve(None) == vdb.latest

    def test_unknown_version_rejected(self, vdb):
        with pytest.raises(VersionError):
            vdb.resolve("nope")

    def test_delete_absent_rejected(self, vdb):
        with pytest.raises(VersionError):
            vdb.delete("FC", "99", "p9")

    def test_current_reflects_uncommitted_changes(self, vdb):
        vdb.insert("Family", "12", "New", "gpcr")
        assert len(vdb.current().relation("Family")) == 2
        # ... but the last committed version does not.
        assert len(vdb.as_of("r3").relation("Family")) == 1

    def test_reconstruction_cached(self, vdb):
        assert vdb.as_of("r2") is vdb.as_of("r2")


class TestVersionedCitations:
    def test_citations_stamped_with_version(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        result = engine.cite("Q(N) :- Family(F, N, Ty)", version="r2")
        assert all(record["Version"] == "r2" for record in result.records)

    def test_old_version_credits_old_committee(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        r2 = engine.cite("Q(N) :- Family(F, N, Ty)", version="r2")
        r3 = engine.cite("Q(N) :- Family(F, N, Ty)", version="r3")
        assert "Hay" in str(r2.records)
        assert "Hay" not in str(r3.records)
        assert "Poyner" in str(r3.records)

    def test_default_is_latest(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        result = engine.cite("Q(N) :- Family(F, N, Ty)")
        assert all(r["Version"] == "r3" for r in result.records)

    def test_tuple_records_stamped(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        result = engine.cite("Q(N) :- Family(F, N, Ty)", version="r1")
        for tc in result.tuples.values():
            assert all(r["Version"] == "r1" for r in tc.records)

    def test_engines_cached_per_version(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        engine.cite("Q(N) :- Family(F, N, Ty)", version="r1")
        engine.cite("Q(N) :- Family(F, N, Ty)", version="r1")
        assert len(engine._engines) == 1

    def test_engines_held_for_a_bounded_number_of_versions(self):
        versioned = VersionedDatabase(gtopdb_schema())
        tags = [f"r{number}" for number in range(MAX_HELD_VERSIONS + 2)]
        for number, tag in enumerate(tags):
            versioned.insert("Family", str(number), f"Fam{number}", "gpcr")
            versioned.commit(tag)
        engine = VersionedCitationEngine(versioned, paper_registry())
        query = "Q(N) :- Family(F, N, Ty)"
        oldest = weakref.ref(engine._engine_for(versioned.resolve(tags[0])))
        first = engine.cite(query, tags[0]).citation()
        for tag in tags[1:]:
            engine.cite(query, tag)
        assert len(engine._engines) == MAX_HELD_VERSIONS
        gc.collect()
        assert oldest() is None  # evicted, and nothing else holds it
        assert engine.cite(query, tags[0]).citation() == first


class TestVersionedPlannedEvaluation:
    QUERY = "Q(Pn) :- FC(F, C), Person(C, Pn, A)"

    def test_evaluate_matches_reconstruction(self, vdb):
        from repro.cq.evaluation import evaluate_query
        from repro.cq.parser import parse_query

        engine = VersionedCitationEngine(vdb, paper_registry())
        for version in ("r1", "r2", "r3", None):
            reference = evaluate_query(
                parse_query(self.QUERY), vdb.as_of(version)
            )
            assert engine.evaluate(self.QUERY, version) == reference

    def test_repeat_hits_per_version_plan_cache(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        engine.evaluate(self.QUERY, "r1")
        planner = engine._engine_for(vdb.resolve("r1")).planner
        misses = planner.misses
        engine.evaluate(self.QUERY, "r1")
        assert planner.misses == misses
        assert planner.hits >= 1
        # A different version plans against its own statistics.
        engine.evaluate(self.QUERY, "r2")
        assert planner.misses == misses

    def test_explain_names_the_version(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        rendered = engine.explain(self.QUERY, "r2")
        assert rendered.startswith("as of version 'r2':")

    def test_plan_for_unknown_version_rejected(self, vdb):
        engine = VersionedCitationEngine(vdb, paper_registry())
        with pytest.raises(VersionError):
            engine.plan(self.QUERY, "no-such-version")
