"""Tests for unions of conjunctive queries (SPJU's U)."""

import pytest

from repro.cq.parser import parse_query
from repro.cq.ucq import UnionQuery, parse_datalog, parse_union_query
from repro.errors import QueryError


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            UnionQuery([])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            UnionQuery([
                parse_query("Q(A) :- R(A, B)"),
                parse_query("Q(A, B) :- R(A, B)"),
            ])

    def test_parameterized_disjunct_rejected(self):
        with pytest.raises(QueryError):
            UnionQuery([
                parse_query("lambda A. Q(A) :- R(A, B)"),
            ])


class TestParsing:
    def test_newline_separated(self):
        union = parse_union_query(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
        )
        assert len(union) == 2

    def test_semicolon_separated(self):
        union = parse_union_query(
            "Q(A) :- R(A, B) ; Q(A) :- S(A, B)"
        )
        assert len(union) == 2

    def test_separators_inside_quoted_constants(self):
        first = 'Q(N) :- Family(F, N, Ty), Ty = "a;b"'
        second = "Q(N) :- Family(F, N, Ty), Ty = 'c\nd'"
        assert parse_datalog(first) == parse_query(first)
        assert parse_datalog(second) == parse_query(second)
        union = parse_union_query(f"{first}; {second}")
        assert union.disjuncts == (parse_query(first), parse_query(second))

    def test_mismatched_heads_rejected(self):
        with pytest.raises(QueryError):
            parse_union_query("Q(A) :- R(A, B)\nP(A) :- S(A, B)")

    def test_empty_text_rejected(self):
        with pytest.raises(QueryError):
            parse_union_query("  \n  ")


class TestEvaluation:
    def test_union_semantics(self, db):
        union = parse_union_query(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
        )
        names = {row[0] for row in union.evaluate(db)}
        assert "Calcitonin" in names and "CatSper" in names

    def test_union_dedupes(self, db):
        union = parse_union_query(
            "Q(N) :- Family(F, N, Ty)\nQ(N) :- Family(F, N, Ty)"
        )
        results = union.evaluate(db)
        assert len(results) == len(set(results))


class TestMinimization:
    def test_subsumed_disjunct_removed(self):
        union = parse_union_query(
            "Q(N) :- Family(F, N, Ty)\n"
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
        )
        minimized = union.minimized()
        assert len(minimized) == 1
        assert minimized.disjuncts[0].comparisons == ()

    def test_equivalent_disjuncts_keep_one(self):
        union = parse_union_query(
            "Q(A) :- R(A, B)\nQ(X) :- R(X, Y)"
        )
        assert len(union.minimized()) == 1

    def test_incomparable_disjuncts_kept(self):
        union = parse_union_query(
            "Q(A) :- R(A, B)\nQ(A) :- S(A, B)"
        )
        assert len(union.minimized()) == 2

    def test_minimal_positions(self):
        union = parse_union_query(
            "Q(A) :- R(A, B), S(A, C)\nQ(A) :- S(A, B)\nQ(X) :- S(X, Y)"
        )
        assert union.minimal_positions() == (1,)
        assert union.minimized().disjuncts == (union.disjuncts[1],)


class TestUnionCitations:
    UNION = ('Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)\n'
             'Q(N) :- Family(F, N, Ty), Ty = "vgic"')

    def test_outputs_are_union(self, db, comprehensive_engine):
        result = comprehensive_engine.cite_union(self.UNION)
        names = {output[0] for output in result.tuples}
        assert "Calcitonin" in names and "CatSper" in names

    def test_per_tuple_plus_across_disjuncts(self, comprehensive_engine):
        # A tuple produced by both disjuncts gets tokens from both.
        result = comprehensive_engine.cite_union(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            'Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)'
        )
        calcitonin = result.tuples[("Calcitonin",)].polynomial
        from repro.citation.tokens import ViewCitationToken
        views = {
            t.view_name for m in calcitonin.monomials()
            for t in m.tokens() if isinstance(t, ViewCitationToken)
        }
        # Both the type selection (V4) and the intro join (V5) contribute.
        assert "V4" in views and "V5" in views

    def test_union_citation_includes_database(self, focused_engine):
        result = focused_engine.cite_union(self.UNION)
        assert result.database_citation[0] in result.records

    def test_citation_names_every_submitted_rule(self, focused_engine):
        # The second rule is subsumed by the first and minimized away
        # before evaluation; the citation still names the union as
        # submitted.
        text = ('Q(N) :- Family(F, N, Ty)\n'
                'Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        result = focused_engine.cite_union(text)
        assert result.query == parse_union_query(text)
        assert result.citation()["query"] == text

    def test_subsumed_disjunct_adds_nothing(self, focused_engine):
        # Minimization runs before citing: the contained rule brings no
        # rewriting and no record of its own.
        result = focused_engine.cite_union(
            'Q(N) :- Family(F, N, Ty)\n'
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
        )
        alone = focused_engine.cite("Q(N) :- Family(F, N, Ty)")
        assert result.rewritings == alone.rewritings
        assert result.records == alone.records

    def test_accepts_union_query_object(self, focused_engine):
        union = parse_union_query(self.UNION)
        result = focused_engine.cite_union(union)
        assert result.tuples

    def test_per_rewriting_aligned_with_rewritings(self,
                                                   comprehensive_engine):
        result = comprehensive_engine.cite_union(self.UNION)
        for tc in result.tuples.values():
            assert len(tc.per_rewriting) == len(result.rewritings)

    def test_one_aggregate_per_union(self, db, registry, monkeypatch):
        # Disjuncts stop at their per-tuple polynomials: Agg's
        # absorption (Def 3.4, Section 3.4) runs once for the union,
        # not once per disjunct and again for the union.
        import repro.citation.generator as generator
        from repro.citation.generator import CitationEngine

        calls = []
        absorbing_sum = generator.absorbing_sum

        def counted(*args, **kwargs):
            calls.append(args)
            return absorbing_sum(*args, **kwargs)

        monkeypatch.setattr(generator, "absorbing_sum", counted)
        engine = CitationEngine(db, registry)
        union = parse_union_query(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)\n'
            'Q(N) :- Family(F, N, Ty), Ty = "vgic"\n'
            'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p1"'
        )
        assert len(union.minimized().disjuncts) == 3
        engine.cite_union(union)
        assert len(calls) == 1

    def test_minimization_is_memoized_per_union_shape(
        self, db, registry, monkeypatch
    ):
        # Containment reads neither variable names nor data: a re-parsed
        # and an α-renamed copy of a union replay the disjunct positions
        # minimization kept for the first.
        from repro.citation.generator import CitationEngine
        from repro.cq import ucq

        text = ('Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)\n'
                'Q(N) :- Family(F, N, Ty)\n'
                'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p1"')
        renamed = (
            'Q(M) :- Family(G, M, T), T = "gpcr", FamilyIntro(G, X)\n'
            'Q(M) :- Family(G, M, T)\n'
            'Q(M) :- Family(G, M, T), FC(G, P), P = "p1"'
        )
        calls = []
        is_contained_in = ucq.is_contained_in

        def counted(*args):
            calls.append(args)
            return is_contained_in(*args)

        monkeypatch.setattr(ucq, "is_contained_in", counted)
        engine = CitationEngine(db, registry)
        first = engine.cite(text)
        assert calls
        del calls[:]
        again = engine.cite(parse_union_query(text))
        alpha = engine.cite(renamed)
        assert calls == []
        assert again.citation() == first.citation()
        assert alpha.citation()["citations"] == first.citation()["citations"]
        assert [
            (output, tc.per_rewriting, tc.polynomial)
            for output, tc in alpha.tuples.items()
        ] == [
            (output, tc.per_rewriting, tc.polynomial)
            for output, tc in first.tuples.items()
        ]
        assert engine.minimization_memo.counters()["hits"] == 2


class TestPlannedEvaluation:
    """Planner/memo routing (PR 7): plans per disjunct through the
    shared cache, shared prefixes reserved in the sub-plan memo."""

    UNION = ('Q(N) :- Family(F, N, Ty), FC(F, C)\n'
             'Q(N) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)')

    def _reference(self, union, db):
        from repro.cq.evaluation import evaluate_query
        seen = {}
        for disjunct in union.disjuncts:
            for row in evaluate_query(disjunct, db):
                seen.setdefault(row)
        return list(seen)

    def test_planner_caches_disjunct_plans(self, db):
        from repro.cq.plan import QueryPlanner

        union = parse_union_query(self.UNION)
        planner = QueryPlanner(db)
        union.plan(db, planner)
        assert planner.misses == len(union)
        union.plan(db, planner)
        assert planner.hits == len(union)

    def test_memo_shares_prefixes_across_disjuncts(self, db):
        from repro.cq.subplan import SubplanMemo

        union = parse_union_query(self.UNION)
        memo = SubplanMemo()
        planned = union.evaluate(db, memo=memo)
        assert planned == self._reference(union, db)
        # The two-step Family⋈FC prefix is evaluated once and seeded
        # into the second disjunct (and later evaluations).
        assert memo.hits >= 1
        assert union.evaluate(db, memo=memo) == planned

    def test_explain_shows_disjuncts_and_shared_prefixes(self, db):
        from repro.cq.subplan import SubplanMemo

        union = parse_union_query(self.UNION)
        rendered = union.explain(db, memo=SubplanMemo())
        assert "disjunct 1/2" in rendered and "disjunct 2/2" in rendered
        assert "shared prefix:" in rendered


class TestEdgeSemantics:
    """UCQ edge cases must be planning-invariant: duplicate-producing,
    contained, and contradiction-short-circuited disjuncts."""

    def _polynomials(self, result):
        return {
            output: tc.polynomial for output, tc in result.tuples.items()
        }

    def test_duplicate_tuples_keep_plus_combination(self, db, registry):
        # Both disjuncts produce every gpcr family name; the +-combined
        # citations must equal the policy's + over each disjunct cited
        # alone, on a fresh engine that shares no sub-plan with the other.
        from repro.citation.generator import CitationEngine
        from repro.citation.order import normal_form

        union = parse_union_query(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FC(F, C)'
        )
        left = CitationEngine(db, registry).cite_union(union)
        unshared = CitationEngine(db, registry)
        per_tuple = {}
        for disjunct in union.minimized():
            alone = CitationEngine(db, registry)
            for output, tc in alone.cite(disjunct).tuples.items():
                per_tuple.setdefault(output, []).append(tc.polynomial)
            assert alone.subplan_memo.hits == 0
        right = unshared._assemble(union, (), {
            output: ((), normal_form(
                unshared._plus(polynomials), unshared.policy.order
            ))
            for output, polynomials in per_tuple.items()
        }, {})
        assert list(left.tuples) == list(right.tuples)
        assert self._polynomials(left) == self._polynomials(right)
        assert left.records == right.records

    def test_contained_disjuncts_yield_reference_union(self, db):
        from repro.cq.plan import QueryPlanner
        from repro.cq.subplan import SubplanMemo

        union = parse_union_query(
            "Q(N) :- Family(F, N, Ty)\n"
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
        )
        reference = union.evaluate(db)
        minimized = union.minimized()
        planned = minimized.evaluate(db, QueryPlanner(db), SubplanMemo())
        assert sorted(planned) == sorted(reference)

    def test_empty_interval_disjunct_short_circuits(self, db):
        from repro.cq.plan import QueryPlanner
        from repro.cq.subplan import SubplanMemo

        union = parse_union_query(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            'Q(N) :- Family(F, N, Ty), N < "A", N > "Z"'
        )
        planner = QueryPlanner(db)
        plans = union.plan(db, planner)
        assert plans[1].empty  # the contradiction is caught at plan time
        planned = union.evaluate(db, planner, SubplanMemo())
        assert planned == union.evaluate(db)
        gpcr = parse_query('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
        from repro.cq.evaluation import evaluate_query
        assert planned == evaluate_query(gpcr, db)
