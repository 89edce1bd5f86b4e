"""E6 (Example 3.5): interpretations of `·` and `+R` over JSON records.

Paper claims: `·` as union keeps the two family-11 records side by side;
`·` as join/merge factors out the common fields; `+R` as merge unions the
committee lists.  Shape claim: on a type-wide citation, the engine's
records equal the per-tuple reference renderer's
(`tests/properties/render_reference.py`), and the engine computes at
most one canonical key per distinct record it returns.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from repro.citation.combiners import dot_merge, dot_union, plus_merge
from repro.citation.generator import CitationEngine
from repro.citation.policy import comprehensive_policy, focused_policy
from repro.gtopdb.generator import GtopdbGenerator

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "tests" / "properties"

FV1 = {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
FV2 = {"ID": "11", "Name": "Calcitonin",
       "Text": "The calcitonin peptide family",
       "Contributors": ["Brown", "Smith"]}


def test_e6_dot_union(benchmark):
    result = benchmark(dot_union, [FV1, FV2])
    assert result == [FV1, FV2]


def test_e6_dot_merge(benchmark):
    result = benchmark(dot_merge, [FV1, FV2])
    assert result == [{
        "ID": "11",
        "Name": "Calcitonin",
        "Committee": ["Hay", "Poyner"],
        "Text": "The calcitonin peptide family",
        "Contributors": ["Brown", "Smith"],
    }]


def test_e6_plus_r_merge(benchmark):
    left = {"ID": "11", "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"]}
    right = {"ID": "11", "Committee": ["Brown"],
             "Contributors": ["Smith"]}
    result = benchmark(plus_merge, [[left], [right]])
    assert result == [{
        "ID": "11",
        "Name": "Calcitonin",
        "Committee": ["Hay", "Poyner", "Brown"],
        "Contributors": ["Smith"],
    }]


def test_e6_policies_render_differently(benchmark, db, registry):
    from repro.citation.generator import CitationEngine
    from repro.citation.policy import CitationPolicy

    union_policy = CitationPolicy(name="u", dot="union")
    merge_policy = CitationPolicy(name="m", dot="merge")
    query = 'Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "11"'

    def render_both():
        u = CitationEngine(db, registry, policy=union_policy).cite(query)
        m = CitationEngine(db, registry, policy=merge_policy).cite(query)
        return u, m

    union_result, merge_result = benchmark(render_both)
    union_body = [r for r in union_result.records
                  if r not in union_result.database_citation]
    merge_body = [r for r in merge_result.records
                  if r not in merge_result.database_citation]
    # union keeps records apart; merge factors them into fewer records.
    assert len(merge_body) <= len(union_body)


@pytest.fixture(scope="module")
def render_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REFERENCE_DIR))
        return importlib.import_module("render_reference")


@pytest.mark.parametrize("make_policy", [
    focused_policy,
    lambda registry: comprehensive_policy(),
], ids=["dot-merge", "dot-union"])
def test_e6_type_wide_citation_renders_each_record_once(
    benchmark, registry, quick, render_reference, make_policy
):
    """The largest type's intro citation, under `·` as merge (focused)
    and as union (comprehensive): records equal the reference
    renderer's, and one citation computes at most one canonical key
    per distinct record it returns, cold and warm.  Counts, not
    timings, so the claim cannot flake."""
    families = 450 if quick else 2000
    db = GtopdbGenerator(
        families=families, persons=families // 2, types=10
    ).build()
    counts = Counter(row[2] for row in db.relation("Family"))
    largest = max(sorted(counts), key=counts.__getitem__)
    text = ('Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            f'Ty = "{largest}"')
    engine = CitationEngine(db, registry, policy=make_policy(registry))
    for __ in range(2):
        with render_reference.counting_canonical_json() as calls:
            result = engine.cite(text)
        payload, per_tuple = render_reference.reference_citation(
            engine, result
        )
        as_json = render_reference.as_json
        assert as_json(result.citation()) == as_json(payload)
        assert as_json(
            [citation.records for citation in result.tuples.values()]
        ) == as_json(per_tuple)
        distinct = render_reference.distinct_records(result)
        assert calls[0] <= distinct, (calls[0], distinct)
    result = benchmark(engine.cite, text)
    benchmark.extra_info["tuples"] = len(result.tuples)
    benchmark.extra_info["canonical_json_calls"] = calls[0]
    benchmark.extra_info["distinct_records"] = distinct
