"""Tests for the rewriting engine (Def 2.2) and the paper's Examples 2.2/2.3."""

import pytest

from repro.citation.generator import CitationEngine
from repro.cq.containment import are_equivalent
from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.errors import RewritingError
from repro.rewriting.engine import RewritingEngine, enumerate_rewritings
from repro.rewriting.expansion import expand_query
from repro.views.registry import ViewRegistry


def rewriting_bodies(rewritings):
    return {
        tuple(sorted(repr(a) for a in r.query.atoms)) for r in rewritings
    }


class TestExample22:
    """Example 2.2: gpcr families that have an introduction page."""

    QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'

    def test_paper_rewritings_found(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        bodies = rewriting_bodies(rewritings)
        # Q1 of the paper: V1 + V2 (constant inlined after normalization).
        assert ('FamilyIntro' not in str(bodies))
        assert ('V1(F, N, "gpcr")', 'V2(F, Tx)') in bodies
        # Q2 of the paper: V4 with the absorbed parameter + V2.
        assert ('V2(F, Tx)', 'V4(F, N, "gpcr")') in bodies

    def test_all_rewritings_total(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        assert all(r.is_total for r in rewritings)

    def test_q2_more_specific_than_q1(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        by_body = {
            tuple(sorted(repr(a) for a in r.query.atoms)): r
            for r in rewritings
        }
        q1 = by_body[('V1(F, N, "gpcr")', 'V2(F, Tx)')]
        q2 = by_body[('V2(F, Tx)', 'V4(F, N, "gpcr")')]
        # The paper: Q2 absorbs the comparison into V4's λ-term, Q1 leaves
        # a residual selection on V1's output.
        assert q2.absorbed_parameter_count >= 1
        assert q2.residual_comparison_count == 0
        assert q1.residual_comparison_count == 1


class TestExample23:
    """Example 2.3: name and introduction text of gpcr families."""

    QUERY = ('Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
             'Ty = "gpcr"')

    def test_exactly_the_four_paper_rewritings(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        assert rewriting_bodies(rewritings) == {
            ('V1(F, N, "gpcr")', 'V2(F, Tx)'),     # Q1
            ('V2(F, Tx)', 'V3(F, N, "gpcr")'),     # Q2
            ('V2(F, Tx)', 'V4(F, N, "gpcr")'),     # Q3
            ('V5(F, N, "gpcr", Tx)',),             # Q4
        }

    def test_q4_preferred_in_display_order(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        best = rewritings[0]
        # "(i) total, (ii) smallest number of views, (iii) comparison
        # matched by the lambda term."
        assert best.is_total
        assert best.view_count == 1
        assert best.residual_comparison_count == 0
        assert best.applications[0].view.name == "V5"

    def test_rewritings_evaluate_to_query_answer(self, db, registry):
        query = parse_query(self.QUERY)
        expected = sorted(evaluate_query(query, db))
        virtual = CitationEngine(db, registry).materialized_views()
        for rewriting in enumerate_rewritings(query, registry):
            got = sorted(evaluate_query(rewriting.query, db,
                                        virtual=virtual))
            assert got == expected, rewriting


class TestDefinition22Conditions:
    def test_expansions_equivalent(self, registry):
        query = parse_query(TestExample23.QUERY)
        for rewriting in enumerate_rewritings(query, registry):
            assert are_equivalent(
                expand_query(rewriting.query, registry), query
            )

    def test_no_redundant_rewriting_emitted(self, registry):
        # A query where a naive cover could use V1 twice redundantly.
        query = parse_query(
            "Q(N) :- Family(F, N, Ty), Family(F, N2, Ty2)"
        )
        rewritings = enumerate_rewritings(query, registry)
        for rewriting in rewritings:
            # Minimization collapses the two atoms; a single view suffices.
            assert rewriting.view_count <= 1

    def test_identity_rewriting_rejected_when_views_apply(self, registry):
        query = parse_query("Q(N) :- Family(F, N, Ty)")
        rewritings = enumerate_rewritings(query, registry)
        assert all(r.view_count > 0 for r in rewritings)

    def test_identity_rewriting_survives_without_views(self, db):
        registry = ViewRegistry(db.schema)  # no views at all
        query = parse_query("Q(N) :- Family(F, N, Ty)")
        rewritings = enumerate_rewritings(query, registry)
        assert len(rewritings) == 1
        assert rewritings[0].view_count == 0
        assert rewritings[0].uncovered_count == 1


class TestPartialRewritings:
    def test_partial_when_no_view_covers_person(self, registry):
        query = parse_query(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        rewritings = enumerate_rewritings(query, registry)
        assert rewritings, "expected at least one partial rewriting"
        for rewriting in rewritings:
            assert rewriting.is_partial
            uncovered = {a.relation for a in rewriting.uncovered_atoms}
            assert uncovered == {"FC", "Person"}

    def test_include_partial_false_filters(self, registry):
        query = parse_query(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        rewritings = enumerate_rewritings(
            query, registry, include_partial=False
        )
        assert rewritings == []

    def test_partial_evaluates_correctly(self, db, registry):
        query = parse_query(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        expected = sorted(evaluate_query(query, db))
        virtual = CitationEngine(db, registry).materialized_views()
        for rewriting in enumerate_rewritings(query, registry):
            got = sorted(
                evaluate_query(rewriting.query, db, virtual=virtual)
            )
            assert got == expected


class TestEngineOptions:
    def test_parameterized_query_rejected(self, registry):
        engine = RewritingEngine(registry)
        with pytest.raises(RewritingError):
            engine.rewrite(
                parse_query("lambda F. Q(F, N) :- Family(F, N, Ty)")
            )

    def test_unsatisfiable_query_has_no_rewritings(self, registry):
        query = parse_query(
            'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"'
        )
        assert enumerate_rewritings(query, registry) == []

    def test_max_rewritings_cap(self, registry):
        query = parse_query(TestExample23.QUERY)
        rewritings = enumerate_rewritings(query, registry,
                                          max_rewritings=2)
        assert len(rewritings) == 2

    def test_validate_false_is_superset(self, registry):
        query = parse_query(TestExample23.QUERY)
        validated = enumerate_rewritings(query, registry)
        unvalidated = enumerate_rewritings(query, registry, validate=False)
        assert rewriting_bodies(validated) <= rewriting_bodies(unvalidated)

    def test_deterministic_order(self, registry):
        query = parse_query(TestExample23.QUERY)
        first = [repr(r.query) for r in
                 enumerate_rewritings(query, registry)]
        second = [repr(r.query) for r in
                  enumerate_rewritings(query, registry)]
        assert first == second


class TestViewApplicationMetadata:
    def test_fully_instantiated_detection(self, registry):
        query = parse_query(TestExample23.QUERY)
        rewritings = enumerate_rewritings(query, registry)
        v5 = next(r for r in rewritings
                  if r.applications and r.applications[0].view.name == "V5")
        assert v5.is_fully_instantiated  # λTy bound to "gpcr"

    def test_free_parameter_not_fully_instantiated(self, registry):
        query = parse_query("Q(N, Tx) :- Family(F, N, Ty), "
                            "FamilyIntro(F, Tx)")
        rewritings = enumerate_rewritings(query, registry)
        v5 = next(r for r in rewritings
                  if r.applications and r.applications[0].view.name == "V5")
        assert not v5.is_fully_instantiated
