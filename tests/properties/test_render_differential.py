"""Differential suite: rendering once per call ≡ rendering per tuple.

The engine renders each distinct token record, monomial and dedup key
once per call.  The oracle, :mod:`render_reference`, renders every
output tuple's polynomial from fresh ``CitationView.citation_for``
records, the way the engine did before.  The engine's ``citation()``
payload and per-tuple records must equal the oracle's byte for byte,
on random GtoPdb queries and two-rule unions under each of the 32
combinations of ``dot``, ``plus``, ``plus_r``, ``agg`` and
``include_database_citation``.

The counting tests pin the saving itself: one citation computes at
most one canonical key per distinct record it returns.
"""

from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from render_reference import (
    as_json,
    counting_canonical_json,
    distinct_records,
    reference_citation,
)

from repro.citation.generator import CitationEngine
from repro.citation.policy import (
    CitationPolicy,
    compact_policy,
    comprehensive_policy,
    default_order,
    focused_policy,
)
from repro.cq.ucq import UnionQuery
from repro.gtopdb.generator import GtopdbGenerator
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.workload.queries import QueryGenerator

REGISTRY = paper_registry()

#: Every combination of the policy's record-level choices.
POLICIES = [
    CitationPolicy(
        name=f"{dot}/{plus}/{plus_r}/{agg}/{neutral}",
        dot=dot, plus=plus, plus_r=plus_r, agg=agg,
        order=default_order(REGISTRY) if plus_r == "best" else None,
        include_database_citation=neutral,
    )
    for dot, plus, plus_r, agg, neutral in itertools.product(
        ("union", "merge"), ("union", "counted"), ("union", "best"),
        ("union", "merge"), (True, False),
    )
]


def assert_renders_like_reference(engine, result):
    payload, per_tuple = reference_citation(engine, result)
    assert as_json(result.citation()) == as_json(payload)
    assert as_json(
        [citation.records for citation in result.tuples.values()]
    ) == as_json(per_tuple)


@st.composite
def citations(draw):
    """A random GtoPdb instance, a query or a two-rule union over it,
    and a policy."""
    seed = draw(st.integers(0, 10_000))
    db = GtopdbGenerator(
        families=draw(st.integers(4, 20)), persons=8, types=3,
        intro_fraction=0.7, seed=seed,
    ).build()
    generator = QueryGenerator(db.schema, db, seed=seed, max_atoms=3)
    query = generator.generate()
    if draw(st.booleans()):
        same_arity = (
            candidate for candidate in (generator.generate()
                                        for __ in range(30))
            if len(candidate.head) == len(query.head)
        )
        query = UnionQuery([query, next(same_arity, query)])
    return db, query, draw(st.sampled_from(POLICIES))


class TestRenderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(citations())
    def test_engine_renders_like_reference(self, drawn):
        db, query, policy = drawn
        engine = CitationEngine(db, REGISTRY, policy=policy)
        if isinstance(query, UnionQuery):
            results = [engine.cite_union(query), engine.cite_union(query)]
        else:
            results = [engine.cite(query), *engine.cite_batch([query])]
        # The second citation renders from the warm record cache.
        for result in results:
            assert_renders_like_reference(engine, result)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_duplicate_derivations(self, policy):
        # Example 3.2's second 'Calcitonin' family gives monomials with
        # coefficients above one, which plus="counted" stamps; in the
        # type selection, C[V4("gpcr")] has coefficient 2 in the first
        # tuple and 1 in the others.
        db = paper_database(duplicate_calcitonin=True)
        engine = CitationEngine(db, REGISTRY, policy=policy)
        for text in ('Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
                     "Q(Ty) :- Family(F, N, Ty)",
                     "Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)"):
            assert_renders_like_reference(engine, engine.cite(text))


#: The shipped policies, by name.
SHIPPED = {
    "focused": lambda: focused_policy(REGISTRY),
    "comprehensive": comprehensive_policy,
    "compact": lambda: compact_policy(REGISTRY),
}


@pytest.mark.parametrize("policy", sorted(SHIPPED))
def test_keys_are_content_based(policy):
    """Equal records from different sources collapse: a neutral
    element equal to a rendered record appears once, as it does for
    the reference renderer."""
    db = paper_database()
    text = 'Q(N) :- Family(F, N, Ty), F = "11"'
    probe = CitationEngine(db, REGISTRY, policy=SHIPPED[policy]())
    rendered = probe.cite(text).tuples[("Calcitonin",)].records[0]
    engine = CitationEngine(
        db, REGISTRY, policy=SHIPPED[policy](),
        database_citation=[copy.deepcopy(rendered)],
    )
    result = engine.cite(text)
    assert_renders_like_reference(engine, result)
    if engine.policy.agg == "union":
        assert result.records.count(rendered) == 1


COUNTED_TEXTS = (
    'Q(N) :- Family(F, N, Ty), F = "11"',
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
    'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"',
    "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)",
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"; '
    'Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)',
)


@pytest.mark.parametrize("policy", sorted(SHIPPED))
@pytest.mark.parametrize("text", COUNTED_TEXTS)
def test_one_canonical_key_per_distinct_record(policy, text):
    """A citation computes at most one canonical key per distinct
    record it returns, cold or warm.

    Under ``agg="merge"`` the merged result-set record is built from
    the tuples' records, so it can equal one of them by content and
    still need a key of its own: one more key is allowed there.
    """
    engine = CitationEngine(
        paper_database(), REGISTRY, policy=SHIPPED[policy]()
    )
    cite = engine.cite_union if ";" in text else engine.cite
    merged = engine.policy.agg == "merge"
    for __ in range(2):
        with counting_canonical_json() as calls:
            result = cite(text)
        assert calls[0] <= distinct_records(result) + merged


def test_type_wide_citation_keys_its_shared_record_once():
    """Every tuple of a type-wide citation shares one type-level
    record: the whole citation computes two canonical keys, that
    record's and the database citation's."""
    db = GtopdbGenerator(families=200, persons=100, types=10).build()
    engine = CitationEngine(db, REGISTRY, policy=focused_policy(REGISTRY))
    text = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'
    engine.cite(text)
    with counting_canonical_json() as calls:
        result = engine.cite(text)
    assert len(result.tuples) > 10
    assert calls[0] == 2
