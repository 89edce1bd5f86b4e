"""Tests for the end-to-end citation engine (Defs 3.1-3.4)."""

import copy

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import (
    CitationPolicy,
    comprehensive_policy,
    focused_policy,
)
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.cq.parser import parse_query

EX22_QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'


def vt(name, *params):
    return ViewCitationToken(name, params)


class TestSymbolicPipeline:
    def test_example_33_polynomial(self, comprehensive_engine):
        """The paper's Example 3.3 citation for output tuple ('b')."""
        result = comprehensive_engine.cite(EX22_QUERY)
        polynomial = result.tuples[("b",)].polynomial
        monomials = set(polynomial.monomials())
        # (CV1("13") +R CV4("gpcr")) · CV2("13"), distributed:
        from repro.citation.polynomial import monomial_from_tokens
        assert monomial_from_tokens([vt("V1", "13"), vt("V2", "13")]) \
            in monomials
        assert monomial_from_tokens([vt("V4", "gpcr"), vt("V2", "13")]) \
            in monomials

    def test_per_rewriting_polynomials_aligned(self, comprehensive_engine):
        result = comprehensive_engine.cite(EX22_QUERY)
        tc = result.tuples[("b",)]
        assert len(tc.per_rewriting) == len(result.rewritings)
        for rewriting, polynomial in zip(result.rewritings,
                                         tc.per_rewriting):
            for monomial in polynomial.monomials():
                views_used = {
                    t.view_name for t in monomial.tokens()
                    if isinstance(t, ViewCitationToken)
                }
                declared = {a.view.name for a in rewriting.applications}
                assert views_used <= declared

    def test_output_tuples_match_query_answer(self, db,
                                              comprehensive_engine):
        from repro.cq.evaluation import evaluate_query
        result = comprehensive_engine.cite(EX22_QUERY)
        assert set(result.output_tuples) == set(
            evaluate_query(parse_query(EX22_QUERY), db)
        )

    def test_range_query_cites_like_its_unconstrained_answer(
        self, db, comprehensive_engine
    ):
        """Range-pushed plans run unchanged through the citation
        pipeline: outputs match direct evaluation and every rewriting
        still contributes."""
        from repro.cq.evaluation import evaluate_query
        query = 'Q(N) :- Family(F, N, Ty), F <= "13", FamilyIntro(F, Tx)'
        result = comprehensive_engine.cite(query)
        assert set(result.output_tuples) == set(
            evaluate_query(parse_query(query), db)
        )
        assert result.output_tuples  # the range keeps family 13
        assert all(
            tc.polynomial.monomials() for tc in result.tuples.values()
        )

    def test_multiple_bindings_sum(self, db_with_duplicate, registry):
        """Example 3.2: duplicated family name => + over bindings."""
        engine = CitationEngine(db_with_duplicate, registry,
                                policy=comprehensive_policy())
        result = engine.cite(EX22_QUERY)
        polynomial = result.tuples[("Calcitonin",)].polynomial
        # Families 11 and 19 both named Calcitonin: tokens for both ids.
        params = {
            t.parameters for m in polynomial.monomials()
            for t in m.tokens() if isinstance(t, ViewCitationToken)
            and t.view_name == "V1"
        }
        assert ("11",) in params and ("19",) in params

    def test_plan_independence(self, db, registry):
        """Def 3.3: equivalent queries get identical citations."""
        engine = CitationEngine(db, registry,
                                policy=comprehensive_policy())
        q1 = engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'
        )
        q2 = engine.cite(
            'Q(N) :- FamilyIntro(F, Tx), Family(F, N, "gpcr")'
        )
        for output in q1.tuples:
            assert q1.tuples[output].polynomial == \
                q2.tuples[output].polynomial

    def test_base_relation_tokens_for_uncovered(self, db, registry):
        engine = CitationEngine(db, registry,
                                policy=comprehensive_policy())
        result = engine.cite(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        sample = next(iter(result.tuples.values()))
        tokens = {
            t for m in sample.polynomial.monomials() for t in m.tokens()
        }
        assert BaseRelationToken("FC") in tokens
        assert BaseRelationToken("Person") in tokens


class TestExample34:
    """Fully instantiated rewriting + idempotence => single citation."""

    def test_single_citation_for_result_set(self, focused_engine):
        result = focused_engine.cite(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"'
        )
        # The preferred rewriting V5("gpcr") is fully instantiated; every
        # tuple carries the same single monomial.
        polynomials = {tc.polynomial for tc in result.tuples.values()}
        assert len(polynomials) == 1
        polynomial = polynomials.pop()
        assert len(polynomial.monomials()) == 1
        assert polynomial.monomials()[0].tokens() == [vt("V5", "gpcr")]
        # Aggregate is that same single citation.
        assert result.aggregate_polynomial == polynomial


class TestRendering:
    def test_records_rendered_from_views(self, focused_engine):
        result = focused_engine.cite(EX22_QUERY)
        body = [r for r in result.records
                if r not in result.database_citation]
        assert any("Contributors" in r or "Committee" in r for r in body)

    def test_database_citation_always_present(self, focused_engine):
        result = focused_engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "no-such-type"'
        )
        assert result.tuples == {}
        assert result.records == result.database_citation
        assert result.records[0]["Owner"] == "Tony Harmar"

    def test_database_citation_can_be_disabled(self, db, registry):
        policy = CitationPolicy(name="bare",
                                include_database_citation=False)
        engine = CitationEngine(db, registry, policy=policy)
        result = engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "no-such-type"'
        )
        assert result.records == []

    def test_counted_plus_adds_derivation_counts(self, db_with_duplicate,
                                                 registry):
        policy = CitationPolicy(name="counted", plus="counted",
                                dot="merge")
        engine = CitationEngine(db_with_duplicate, registry, policy=policy)
        result = engine.cite("Q(Ty) :- Family(F, N, Ty)")
        # Type 'gpcr' has many derivations; with +R=union the V4 polynomial
        # keeps a count per monomial.
        assert ("gpcr",) in result.tuples

    def test_custom_database_citation(self, db, registry):
        engine = CitationEngine(
            db, registry,
            database_citation=[{"Database": "GtoPdb", "Year": 2016}],
        )
        result = engine.cite(EX22_QUERY)
        assert {"Database": "GtoPdb", "Year": 2016} in result.records


class TestEngineAPI:
    def test_cite_accepts_parsed_query(self, focused_engine):
        query = parse_query(EX22_QUERY)
        result = focused_engine.cite(query)
        assert result.query is query

    def test_cite_sql(self, db, registry):
        engine = CitationEngine(db, registry)
        result = engine.cite_sql(
            "SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'"
        )
        assert ("Calcitonin",) in result.tuples

    def test_cite_view_directly(self, focused_engine):
        record = focused_engine.cite_view("V1", ("11",))
        assert record["Committee"] == ["Hay", "Poyner"]

    def test_refresh_clears_caches(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry)
        before = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(before.tuples) == 1
        db.insert("Family", "21", "NewFam", "vgic")
        engine.refresh()
        after = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(after.tuples) == 2

    def test_mutation_makes_rendered_records_stale(self, registry):
        # invalidate_data keeps the record cache; its entries are
        # tagged with stats_version, so the insert alone stops the old
        # committee from being served.
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry)
        query = 'Q(N) :- Family(F, N, Ty), F = "20"'
        assert "Hay" not in str(engine.cite(query).records)
        assert len(engine.record_cache) > 0
        db.insert("FC", "20", "p1")
        engine.invalidate_data()
        assert len(engine.record_cache) > 0
        misses = engine.record_cache.misses
        assert "Hay" in str(engine.cite(query).records)
        assert engine.record_cache.misses > misses

    def test_result_repr(self, focused_engine):
        result = focused_engine.cite(EX22_QUERY)
        assert "tuples" in repr(result)

    def test_citation_payload_shape(self, focused_engine):
        payload = focused_engine.cite(EX22_QUERY).citation()
        assert set(payload) == {"query", "policy", "database", "citations"}


FAMILY_11 = 'Q(N) :- Family(F, N, Ty), F = "11"'
POLICIES = {
    "focused": focused_policy,
    "comprehensive": lambda registry: comprehensive_policy(),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestReturnedRecordsAreTheCallers:
    """Changing a returned citation never changes a later one: no
    returned dict or list is shared with the record cache or the
    engine's database citation."""

    TEXTS = (FAMILY_11, 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"')

    @staticmethod
    def engine(db, registry, policy):
        return CitationEngine(db, registry, policy=POLICIES[policy](registry))

    def later_citations(self, engine):
        return [engine.cite(text).citation() for text in self.TEXTS]

    def test_database_citation(self, db, registry, policy):
        engine = self.engine(db, registry, policy)
        neutral = copy.deepcopy(engine.database_citation)
        before = copy.deepcopy(self.later_citations(engine))
        engine.cite(FAMILY_11).database_citation[0]["X"] = 1
        assert self.later_citations(engine) == before
        assert engine.database_citation == neutral

    def test_top_level_field(self, db, registry, policy):
        engine = self.engine(db, registry, policy)
        before = copy.deepcopy(self.later_citations(engine))
        for record in engine.cite(FAMILY_11).records:
            record["X"] = 1
        assert self.later_citations(engine) == before

    def test_nested_list(self, db, registry, policy):
        engine = self.engine(db, registry, policy)
        before = copy.deepcopy(self.later_citations(engine))
        result = engine.cite(FAMILY_11)
        record = next(r for r in result.records if r.get("ID") == "11")
        record["Committee"].append("X")
        assert self.later_citations(engine) == before

    def test_dict_nested_in_a_list(self, db, registry, policy):
        # V4's record lists one dict per contributing family, so a copy
        # one level deep would still share them.
        engine = self.engine(db, registry, policy)
        before = copy.deepcopy(self.later_citations(engine))
        result = engine.cite(FAMILY_11)
        record = next(r for r in result.records if "Contributors" in r)
        record["Contributors"][0]["Name"] = "X"
        assert self.later_citations(engine) == before

    def test_per_tuple_records(self, db, registry, policy):
        engine = self.engine(db, registry, policy)
        before = copy.deepcopy(self.later_citations(engine))
        result = engine.cite(FAMILY_11)
        for record in result.tuples[("Calcitonin",)].records:
            record["X"] = 1
            for value in record.values():
                if isinstance(value, list):
                    value.append("X")
        assert self.later_citations(engine) == before

    def test_union_records(self, db, registry, policy):
        engine = self.engine(db, registry, policy)
        union = FAMILY_11 + '; Q(N) :- Family(F, N, Ty), Ty = "vgic"'
        before = copy.deepcopy(engine.cite_union(union).citation())
        for record in engine.cite_union(union).records:
            record["X"] = 1
        assert engine.cite_union(union).citation() == before
