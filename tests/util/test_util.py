"""Tests for shared utilities: name supply, JSON helpers."""

from repro.util.jsonutil import (
    canonical_json,
    copy_json,
    merge_records,
    union_records,
)
from repro.util.naming import NameSupply, fresh_variable_name


class TestNameSupply:
    def test_fresh_avoids_collisions(self):
        supply = NameSupply(avoid=["_v0", "_v1"])
        assert supply.fresh() == "_v2"

    def test_hint_used_when_free(self):
        supply = NameSupply(avoid=["x"])
        assert supply.fresh(hint="y") == "y"

    def test_hint_skipped_when_taken(self):
        supply = NameSupply(avoid=["y"])
        name = supply.fresh(hint="y")
        assert name != "y"

    def test_never_repeats(self):
        supply = NameSupply()
        names = {supply.fresh() for __ in range(100)}
        assert len(names) == 100

    def test_reserve(self):
        supply = NameSupply()
        supply.reserve(["_v0"])
        assert supply.fresh() == "_v1"

    def test_fresh_variable_name(self):
        assert fresh_variable_name(["a"], hint="b") == "b"
        assert fresh_variable_name(["b"], hint="b") == "b0"
        assert fresh_variable_name(["b", "b0"], hint="b") == "b1"


class TestJsonUtil:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_union_records_dedupes(self):
        records = [{"a": 1}, {"a": 1}, {"b": 2}]
        assert union_records(records) == [{"a": 1}, {"b": 2}]

    def test_union_records_dedupes_by_the_given_key(self):
        keys = []

        def key(record):
            keys.append(record)
            return str(sorted(record))

        records = [{"a": 1}, {"a": 2}, {"b": 2}]
        assert union_records(records, key) == [{"a": 1}, {"b": 2}]
        assert keys == records

    def test_copy_json_shares_no_dict_or_list(self):
        value = {"ID": "11", "Contributors": [{"Committee": ["Hay"]}],
                 "Count": 2, "Score": 0.5, "Live": True, "Note": None}
        copied = copy_json(value)
        assert copied == value
        assert copied is not value
        assert copied["Contributors"] is not value["Contributors"]
        inner = copied["Contributors"][0]
        assert inner is not value["Contributors"][0]
        assert inner["Committee"] is not value["Contributors"][0]["Committee"]

    def test_copy_json_deep_copies_other_containers(self):
        value = {"Pair": (["Hay"], "x")}
        copied = copy_json(value)
        assert copied == value
        assert copied["Pair"][0] is not value["Pair"][0]

    def test_merge_records_factors_common_fields(self):
        # The paper's Example 3.5 merge.
        left = {"ID": "11", "Name": "Calcitonin",
                "Committee": ["Hay", "Poyner"]}
        right = {"ID": "11", "Name": "Calcitonin",
                 "Text": "The calcitonin peptide family",
                 "Contributors": ["Brown", "Smith"]}
        merged = merge_records([left, right])
        assert merged == {
            "ID": "11",
            "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"],
            "Text": "The calcitonin peptide family",
            "Contributors": ["Brown", "Smith"],
        }

    def test_merge_records_unions_conflicting_lists(self):
        merged = merge_records([
            {"Committee": ["Hay"]},
            {"Committee": ["Brown"]},
        ])
        assert merged == {"Committee": ["Hay", "Brown"]}

    def test_merge_records_conflicting_scalars_become_list(self):
        merged = merge_records([{"Name": "A"}, {"Name": "B"}])
        assert merged == {"Name": ["A", "B"]}

    def test_merge_records_nested_dicts(self):
        merged = merge_records([
            {"Meta": {"a": 1}},
            {"Meta": {"b": 2}},
        ])
        assert merged == {"Meta": {"a": 1, "b": 2}}

    def test_merge_empty(self):
        assert merge_records([]) == {}
