"""Tests for citation explanations."""


from repro.citation.explain import explain

QUERY = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'


class TestExplain:
    def test_all_rewritings_listed(self, focused_engine):
        result = focused_engine.cite(QUERY)
        explanation = explain(result)
        assert len(explanation.rewritings) == len(result.rewritings)

    def test_absorbed_rewritings_marked(self, focused_engine):
        result = focused_engine.cite(QUERY)
        explanation = explain(result)
        used = [e for e in explanation.rewritings if e.used]
        absorbed = [e for e in explanation.rewritings if not e.used]
        # Focused policy keeps only V5; the other three are absorbed.
        assert len(used) == 1
        assert len(absorbed) == 3
        assert used[0].rewriting.applications[0].view.name == "V5"

    def test_skipped_rewritings_name_the_deciding_level(
        self, focused_engine
    ):
        # Example 2.3: Q1-Q3 use two views each, Q4 = V5("gpcr") one, so
        # fewest views absorbs Q1-Q3 before any of them is evaluated.
        result = focused_engine.cite(QUERY)
        explanation = explain(result)
        used = [e for e in explanation.rewritings if e.used]
        absorbed = [e for e in explanation.rewritings if not e.used]
        assert [repr(e.rewriting.query) for e in used] == [
            'Q(N, Tx) :- V5(F, N, "gpcr", Tx)'
        ]
        assert used[0].pruned is None
        assert [str(e.pruned) for e in absorbed] == [
            "fewest views: 2 against 1"
        ] * 3
        assert all(
            e.describe().startswith(
                "[absorbed by preference order (fewest views: 2 against 1)]"
            )
            for e in absorbed
        )
        # Explaining evaluated none of the skipped rewritings.
        assert all(
            tc._skipped is not None for tc in result.tuples.values()
        )

    def test_comprehensive_marks_all_used(self, comprehensive_engine):
        result = comprehensive_engine.cite(QUERY)
        explanation = explain(result)
        assert all(e.used for e in explanation.rewritings)

    def test_tuple_credits(self, focused_engine):
        result = focused_engine.cite(QUERY)
        explanation = explain(result)
        for tuple_explanation in explanation.tuples:
            assert tuple_explanation.credited_views == ["V5('gpcr')"]

    def test_base_accesses_reported(self, focused_engine):
        result = focused_engine.cite(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        explanation = explain(result)
        sample = explanation.tuples[0]
        assert set(sample.base_accesses) == {"FC", "Person"}

    def test_describe_renders(self, focused_engine):
        result = focused_engine.cite(QUERY)
        text = explain(result).describe()
        assert "policy=focused" in text
        assert "USED" in text
        assert "absorbed by preference order" in text

    def test_empty_result_explained(self, focused_engine):
        result = focused_engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "none"'
        )
        text = explain(result).describe()
        assert "empty result set" in text

    def test_alternative_count(self, comprehensive_engine):
        result = comprehensive_engine.cite(QUERY)
        explanation = explain(result)
        assert all(
            e.alternative_count >= 2 for e in explanation.tuples
        )
