"""Tests for record combiners (Example 3.5) and citation policies."""

import pytest

from repro.citation.combiners import (
    AGG_INTERPRETATIONS,
    DOT_INTERPRETATIONS,
    PLUS_INTERPRETATIONS,
    agg_merge,
    agg_union,
    dot_merge,
    dot_union,
    plus_merge,
    plus_union,
    with_neutral,
)
from repro.citation.policy import (
    CitationPolicy,
    compact_policy,
    comprehensive_policy,
    default_order,
    focused_policy,
)
from repro.errors import PolicyError

FV1 = {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
FV2 = {"ID": "11", "Name": "Calcitonin",
       "Text": "The calcitonin peptide family",
       "Contributors": ["Brown", "Smith"]}


class TestDotInterpretations:
    def test_dot_union_keeps_records_apart(self):
        # Example 3.5, first interpretation of ·
        assert dot_union([FV1, FV2]) == [FV1, FV2]

    def test_dot_union_dedupes(self):
        assert dot_union([FV1, FV1]) == [FV1]

    def test_dot_merge_factors_common_fields(self):
        # Example 3.5, second interpretation of ·
        merged = dot_merge([FV1, FV2])
        assert merged == [{
            "ID": "11",
            "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"],
            "Text": "The calcitonin peptide family",
            "Contributors": ["Brown", "Smith"],
        }]

    def test_dot_merge_empty(self):
        assert dot_merge([]) == []


class TestPlusInterpretations:
    def test_plus_union(self):
        assert plus_union([[FV1], [FV2]]) == [FV1, FV2]

    def test_plus_merge_reproduces_paper_example(self):
        # {ID, Name, Committee:[Hay,Poyner]} +R
        # {ID, Committee:[Brown], Contributors:[Smith]}
        left = {"ID": "11", "Name": "Calcitonin",
                "Committee": ["Hay", "Poyner"]}
        right = {"ID": "11", "Committee": ["Brown"],
                 "Contributors": ["Smith"]}
        merged = plus_merge([[left], [right]])
        assert merged == [{
            "ID": "11",
            "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner", "Brown"],
            "Contributors": ["Smith"],
        }]

    def test_agg_aliases(self):
        assert agg_union([[FV1]]) == [FV1]
        assert agg_merge([[FV1], [FV2]]) == plus_merge([[FV1], [FV2]])


class TestNeutral:
    def test_neutral_prepended(self):
        neutral = [{"Owner": "Tony Harmar"}]
        assert with_neutral([FV1], neutral) == [{"Owner": "Tony Harmar"},
                                                FV1]

    def test_neutral_with_empty_body(self):
        # Def 3.4: the neutral element appears even for empty outputs.
        neutral = [{"Owner": "Tony Harmar"}]
        assert with_neutral([], neutral) == neutral

    def test_neutral_deduped(self):
        neutral = [FV1]
        assert with_neutral([FV1], neutral) == [FV1]


class TestDedupKey:
    """Every combiner takes the dedup ``key``; the unions use it."""

    @staticmethod
    def by_id(record):
        return record["ID"]

    def test_unions_dedupe_by_key(self):
        # FV1 and FV2 share an ID, so keyed by ID they are one record.
        assert dot_union([FV1, FV2], key=self.by_id) == [FV1]
        assert plus_union([[FV1], [FV2]], key=self.by_id) == [FV1]
        assert agg_union([[FV1], [FV2]], key=self.by_id) == [FV1]
        assert with_neutral([FV2], [FV1], key=self.by_id) == [FV1]

    def test_every_table_entry_accepts_key(self):
        for combiner in DOT_INTERPRETATIONS.values():
            assert combiner([FV1], key=self.by_id)
        for table in (PLUS_INTERPRETATIONS, AGG_INTERPRETATIONS):
            for combiner in table.values():
                assert combiner([[FV1]], key=self.by_id)


class TestPolicyValidation:
    def test_unknown_dot_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", dot="nope")

    def test_unknown_plus_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus="nope")

    def test_unknown_plus_r_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus_r="nope")

    def test_unknown_agg_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", agg="nope")

    def test_best_requires_order(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus_r="best", order=None)


class TestShippedPolicies:
    def test_comprehensive(self):
        policy = comprehensive_policy()
        assert policy.plus_r == "union"
        assert policy.order is None
        assert policy.idempotent_plus

    def test_focused(self, registry):
        policy = focused_policy(registry)
        assert policy.plus_r == "best"
        assert policy.order is not None

    def test_compact(self, registry):
        policy = compact_policy(registry)
        assert policy.agg == "merge"

    def test_counted_plus_not_idempotent(self):
        policy = CitationPolicy(name="c", plus="counted")
        assert not policy.idempotent_plus

    def test_default_order_without_registry(self):
        order = default_order(None)
        assert order is not None
