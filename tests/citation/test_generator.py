"""Tests for the end-to-end citation engine (Defs 3.1-3.4)."""

import copy
import json

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
        # The insert alone drops exactly the records it makes stale:
        # family 20's committee changed, family 11's did not.
        # invalidate_data() then drops every record through the epoch.
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry)
        query = 'Q(N) :- Family(F, N, Ty), F = "20"'
        unrelated = 'Q(N) :- Family(F, N, Ty), F = "11"'
        engine.cite(unrelated)
        assert "Hay" not in str(engine.cite(query).records)
        assert len(engine.record_cache) > 0
        db.insert("FC", "20", "p1")
        assert ViewCitationToken("V1", ("20",)) not in engine.record_cache
        hits = engine.record_cache.hits
        engine.cite(unrelated)
        assert engine.record_cache.hits > hits
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


GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'


def citation_json(engine, text):
    return json.dumps(engine.cite(text).citation(), default=str)


def extensions(store):
    """Each view's rows in the store, as ``registry.materialize`` lists
    them."""
    return {
        instance.schema.name: [row.values for row in instance]
        for instance in store.relations()
    }


class TestRowDeltas:
    """Writes reach the engine through the database's row-change hook."""

    @pytest.fixture
    def fresh_db(self):
        from repro.gtopdb.sample import paper_database
        return paper_database()

    def test_write_without_invalidate_data_is_cited_fresh(
        self, fresh_db, registry
    ):
        engine = CitationEngine(fresh_db, registry)
        assert len(engine.cite(GPCR).tuples) == 4
        fresh_db.insert("Family", "f99", "NewFam", "gpcr")
        assert len(engine.cite(GPCR).tuples) == 5
        assert citation_json(engine, GPCR) == citation_json(
            CitationEngine(fresh_db, registry), GPCR
        )

    def test_database_citation_follows_metadata_writes(
        self, fresh_db, registry
    ):
        engine = CitationEngine(fresh_db, registry)
        text = 'Q(N) :- Family(F, N, Ty), F = "11"'
        assert engine.cite(text).citation()["database"][0]["Version"] == "23"
        fresh_db.delete("MetaData", "Version", "23")
        fresh_db.insert("MetaData", "Version", "24")
        assert engine.cite(text).citation()["database"][0]["Version"] == "24"
        engine.invalidate_data()
        assert citation_json(engine, text) == citation_json(
            CitationEngine(fresh_db, registry), text
        )

    def test_given_database_citation_is_kept(self, fresh_db, registry):
        neutral = [{"Database": "mine"}]
        engine = CitationEngine(fresh_db, registry, database_citation=neutral)
        fresh_db.insert("MetaData", "Note", "x")
        engine.invalidate_data()
        assert engine.cite(GPCR).citation()["database"] == neutral

    def test_fresh_family_row_renders_no_record(self, fresh_db, registry):
        engine = CitationEngine(fresh_db, registry)
        before = citation_json(engine, GPCR)
        misses = engine.record_cache.misses
        fresh_db.insert("Family", "f99", "NewFam", "vgic")
        fresh_db.delete("Family", "f99", "NewFam", "vgic")
        assert citation_json(engine, GPCR) == before
        assert engine.record_cache.misses == misses

    def test_join_view_follows_a_plan_flip(self, fresh_db, registry):
        # Re-inserting family 11's intro moves it to the end of
        # FamilyIntro, so the FamilyIntro-first plan of V5 lists it
        # last; deleting two families without an intro leaves V5's
        # rows alone but flips its plan to Family first, which lists
        # family 11 first.
        engine = CitationEngine(fresh_db, registry)
        engine.materialized_views()
        fresh_db.delete("FamilyIntro", "11", "The calcitonin peptide family")
        fresh_db.insert("FamilyIntro", "11", "Intro")
        assert extensions(engine.materialized_views())["V5"][-1][0] == "11"
        fresh_db.delete("Family", "12", "Calcium-sensing", "gpcr")
        fresh_db.delete("Family", "20", "CatSper", "vgic")
        fresh = registry.materialize(fresh_db)
        assert fresh["V5"][0][0] == "11"
        assert extensions(engine.materialized_views()) == fresh

    def test_writes_are_applied_once_by_the_next_read(
        self, fresh_db, registry, monkeypatch
    ):
        # Each intro write changes V5, which the read then
        # re-materializes once; V2 takes each change as it comes, in
        # order: the intro inserted and deleted again is gone, and the
        # one deleted and inserted again moves to the end.
        from repro.views.registry import ViewRegistry
        engine = CitationEngine(fresh_db, registry)
        engine.cite(GPCR)
        rebuilt = []
        materialize = ViewRegistry.materialize

        def counting(self, db, names=None, planner=None, pinned=None):
            if pinned is None:
                rebuilt.append(names)
            return materialize(self, db, names, planner, pinned)

        monkeypatch.setattr(ViewRegistry, "materialize", counting)
        fresh_db.insert("FamilyIntro", "12", "Intro12")
        fresh_db.insert("FamilyIntro", "20", "Intro20")
        fresh_db.delete("FamilyIntro", "13", "Familyb")
        fresh_db.delete("FamilyIntro", "12", "Intro12")
        fresh_db.delete("FamilyIntro", "11", "The calcitonin peptide family")
        fresh_db.insert("FamilyIntro", "11", "Intro11")
        assert rebuilt == []
        views = extensions(engine.materialized_views())
        assert rebuilt == [["V5"]]
        assert [row[0] for row in views["V2"]] == ["14", "20", "11"]
        assert views == materialize(registry, fresh_db)

    def test_memo_keeps_prefixes_a_write_did_not_reach(
        self, fresh_db, registry
    ):
        # The query's three rewritings share one prefix: a probe of FC.
        text = 'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p1"'
        engine = CitationEngine(fresh_db, registry)
        engine.cite(text)
        memo = engine.subplan_memo
        assert [[part[0] for part in key] for key in memo._store] == [["FC"]]
        misses = memo.misses
        fresh_db.insert("Family", "f99", "NewFam", "gpcr")
        assert citation_json(engine, text) == citation_json(
            CitationEngine(fresh_db, registry), text
        )
        assert memo.misses == misses
        fresh_db.insert("FC", "12", "p1")
        assert citation_json(engine, text) == citation_json(
            CitationEngine(fresh_db, registry), text
        )
        assert memo.misses == misses + 1

    def test_a_long_write_run_is_rebuilt_once(
        self, fresh_db, registry, monkeypatch
    ):
        from repro.citation.generator import MAX_MAINTAINED_ROWS
        from repro.views.citation_view import CitationView
        engine = CitationEngine(fresh_db, registry)
        engine.cite(GPCR)
        calls = []
        delta = CitationView.delta
        monkeypatch.setattr(
            CitationView, "delta",
            lambda *args: calls.append(args) or delta(*args),
        )
        for index in range(3 * MAX_MAINTAINED_ROWS):
            fresh_db.insert("Family", f"w{index}", f"W{index}", "gpcr")
        family_views = [
            view for view in registry
            if "Family" in view.view.relation_names()
        ]
        assert len(calls) == MAX_MAINTAINED_ROWS * len(family_views)
        assert citation_json(engine, GPCR) == citation_json(
            CitationEngine(fresh_db, registry), GPCR
        )

    def test_bulk_load_invalidates_like_invalidate_data(
        self, fresh_db, registry
    ):
        engine = CitationEngine(fresh_db, registry)
        engine.cite(GPCR)
        fresh_db.insert_all("Family", [
            (f"b{index}", f"Bulk{index}", "gpcr") for index in range(70)
        ])
        assert len(engine.cite(GPCR).tuples) == 74
        assert citation_json(engine, GPCR) == citation_json(
            CitationEngine(fresh_db, registry), GPCR
        )

    def test_nothing_cached_runs_no_delta_query(
        self, fresh_db, registry, monkeypatch
    ):
        from repro.views.citation_view import CitationView
        engine = CitationEngine(fresh_db, registry)
        calls = []
        monkeypatch.setattr(
            CitationView, "delta", lambda *args: calls.append(args) or []
        )
        monkeypatch.setattr(
            CitationView, "stale_parameters",
            lambda *args: calls.append(args) or [],
        )
        fresh_db.insert("FC", "20", "p1")
        fresh_db.delete("FC", "20", "p1")
        assert calls == []
        assert "Hay" not in str(engine.cite(FAMILY_20).records)

    def test_collected_engine_stops_listening(self, fresh_db, registry):
        import gc
        import weakref
        engine = CitationEngine(fresh_db, registry)
        engine.cite(GPCR)
        collected = weakref.ref(engine)
        del engine
        gc.collect()
        assert collected() is None
        fresh_db.insert("Family", "f99", "NewFam", "gpcr")


FAMILY_20 = 'Q(N) :- Family(F, N, Ty), F = "20"'
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


class TestOnePipeline:
    """Every query — conjunctive or union, object or text — is cited
    through ``cite_batch``."""

    UNION = ('Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)\n'
             'Q(N) :- Family(F, N, Ty), Ty = "vgic"')

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_interleaved_batch_equals_each_query_alone(
        self, db, registry, policy
    ):
        from repro.cq.ucq import UnionQuery, parse_datalog, parse_union_query

        queries = [
            parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"'),
            "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
            parse_union_query(self.UNION),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            "Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
            UnionQuery([parse_query("Q(Pn) :- FC(F, C), Person(C, Pn, A)")]),
            FAMILY_11,
            self.UNION,
        ]

        def engine():
            return CitationEngine(
                db, registry, policy=POLICIES[policy](registry)
            )

        results = engine().cite_batch(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            alone = engine().cite(query)
            assert result.query == (
                parse_datalog(query) if isinstance(query, str) else query
            )
            assert result.citation() == alone.citation()
            assert result.rewritings == alone.rewritings
            assert list(result.tuples) == list(alone.tuples)
            for output, tc in result.tuples.items():
                assert tc.polynomial == alone.tuples[output].polynomial
                assert tc.per_rewriting == alone.tuples[output].per_rewriting
                assert tc.records == alone.tuples[output].records
            assert result.aggregate_polynomial == alone.aggregate_polynomial


class TestSkippedRewritings:
    """Rewritings the focused order ranks below the best are neither
    planned nor evaluated; their ``per_rewriting`` entries are computed
    on first read."""

    INTRO = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'
    #: Rewriting 0 joins V1 and V2 (two views) and is skipped; the kept
    #: V5 rewriting derives two tuples.
    CONTRIBUTORS = (
        'Q(C) :- Family(F, N, Ty), FamilyIntro(F, Tx), FIC(F, C), F = "11"'
    )

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The rewritings ``evaluate_with_bindings`` runs, with the
        sanitizer off: under ``--sanitize`` a pruned query is cited
        again through every rewriting."""
        import repro.citation.generator as generator
        from repro.analysis.sanitizer import set_sanitize

        previous = set_sanitize("off")
        calls = []
        real = generator.evaluate_with_bindings

        def counted(query, *args, **kwargs):
            calls.append(repr(query))
            return real(query, *args, **kwargs)

        monkeypatch.setattr(generator, "evaluate_with_bindings", counted)
        yield calls
        set_sanitize(previous)

    def test_only_kept_rewritings_are_planned_and_evaluated(
        self, db, registry, evaluations
    ):
        engine = CitationEngine(db, registry)
        planned = []
        plan = engine.planner.plan

        def counted(query, *args, **kwargs):
            planned.append(repr(query))
            return plan(query, *args, **kwargs)

        engine.planner.plan = counted
        result = engine.cite(self.INTRO)
        assert sorted(result.pruned) == [1, 2, 3]
        assert evaluations == ['Q(N, Tx) :- V5(F, N, "gpcr", Tx)']
        # The others planned are the views' extensions and citation
        # queries.
        assert [text for text in planned if text.startswith("Q(")] == (
            evaluations
        )
        # The first read evaluates the three skipped rewritings once,
        # for every tuple of the result.
        full = CitationEngine(
            db, registry, policy=comprehensive_policy()
        ).cite(self.INTRO)
        evaluations.clear()
        for output, tc in result.tuples.items():
            assert tc.per_rewriting == full.tuples[output].per_rewriting
        assert len(evaluations) == 3

    def test_tuples_keep_the_order_of_a_skipped_rewriting_zero(
        self, db, registry, evaluations
    ):
        result = CitationEngine(db, registry).cite(self.CONTRIBUTORS)
        assert 0 in result.pruned and len(result.tuples) == 2
        # Rewriting 0's plan runs for the tuple order alone.
        assert evaluations == [
            'Q(C) :- V5("11", N, Ty, Tx), FIC("11", C)',
            'Q(C) :- V1("11", N, Ty), V2("11", Tx), FIC("11", C)',
        ]
        full = CitationEngine(
            db, registry, policy=comprehensive_policy()
        ).cite(self.CONTRIBUTORS)
        assert list(result.tuples) == list(full.tuples)

    def test_validate_false_and_comprehensive_skip_nothing(
        self, db, registry
    ):
        for engine in (
            CitationEngine(db, registry, validate=False),
            CitationEngine(db, registry, policy=comprehensive_policy()),
        ):
            result = engine.cite(self.INTRO)
            assert result.pruned == {}
            assert len(result.rewritings) >= 4
