"""Differential suite: Defs 3.1–3.4 built once per distinct value ≡
built per binding and per tuple.

Within one citation the engine builds one monomial per distinct
λ-valuation of a rewriting, one polynomial per distinct term list, one
``+R`` per distinct vector of per-rewriting polynomials and one ``+``
rendering per distinct tuple polynomial, and shares each by identity.
The reference below shares nothing: one
``CitationEngine._binding_monomial`` per binding, summed per tuple, one
``CitationEngine._combine_rewritings`` per tuple, ``+`` and the normal
form per tuple across a union's disjuncts, and each tuple rendered on
its own (:mod:`render_reference`).  Its bindings are the executor's, in
its derivation order — that order decides which of two equal monomials
names a term, and which of ``1`` and ``1.0`` binds a join variable —
and they must equal :func:`~repro.cq.evaluation.reference_bindings`'s
as a multiset.

The view-parameter column is ANY-typed and holds values that compare
equal but print differently in a token — ``1``, ``1.0`` and ``True``,
``0.0`` and ``-0.0`` — so a memo that merged them would name a token by
the wrong value.  Per-tuple ``polynomial`` and ``per_rewriting`` reprs
(skipped rewritings included), per-tuple records, the aggregate and the
``citation()`` JSON must all match exactly.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st
from render_reference import as_json, reference_citation

from repro.citation.generator import CitationEngine
from repro.citation.order import absorbing_sum
from repro.citation.policy import (
    CitationPolicy,
    compact_policy,
    comprehensive_policy,
    default_order,
    focused_policy,
)
from repro.cq.evaluation import reference_bindings
from repro.cq.ucq import UnionQuery, parse_datalog
from repro.relational.database import Database
from repro.relational.schema import Attribute, RelationSchema, Schema
from repro.relational.types import ANY, STRING
from repro.semiring.polynomial import ProvenancePolynomial
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry

SCHEMA = Schema([
    RelationSchema("Item", [
        Attribute("K", STRING), Attribute("P", ANY), Attribute("G", STRING),
    ]),
    RelationSchema("Tag", [Attribute("P", ANY), Attribute("T", STRING)]),
])
REGISTRY = ViewRegistry(SCHEMA, [
    CitationView.from_strings(
        "lambda P. VP(K, P, G) :- Item(K, P, G)",
        "lambda P. CVP(T) :- Tag(P, T)", labels=["Tags"],
    ),
    CitationView.from_strings(
        "lambda G. VG(K, P, G) :- Item(K, P, G)",
        "lambda G. CVG(K) :- Item(K, P, G)", labels=["Items"],
    ),
    CitationView.from_strings(
        "VA(K, P, G) :- Item(K, P, G)",
        "CVA(G) :- Item(K, P, G)", labels=["Groups"],
    ),
    CitationView.from_strings(
        "lambda P. VT(P, T) :- Tag(P, T)",
        "lambda P. CVT(T) :- Tag(P, T)", labels=["Labels"],
    ),
])
#: Equal values that print differently, and two that equal none of them.
VALUES = [1, 1.0, True, 0.0, -0.0, 2, "x"]
TEXTS = [
    "Q(K) :- Item(K, P, G)",
    "Q(G) :- Item(K, P, G)",
    'Q(K) :- Item(K, P, G), G = "g1"',
    "Q(K, T) :- Item(K, P, G), Tag(P, T)",
    "Q(G, T) :- Item(K, P, G), Tag(P, T)",
    "Q(T) :- Item(K, P, G), Tag(P, T)",
    "Q(T) :- Tag(P, T)",
    # A self-join on the parameter: one view applied twice.
    "Q(K1, K2) :- Item(K1, P, G1), Item(K2, P, G2)",
]
POLICIES = [
    comprehensive_policy(),
    focused_policy(REGISTRY),
    compact_policy(REGISTRY),
    CitationPolicy(
        name="counted", dot="union", plus="counted", plus_r="best",
        order=default_order(REGISTRY),
    ),
]


def build(items, tags):
    db = Database(SCHEMA)
    db.insert_all("Item", items)
    db.insert_all("Tag", tags)
    return db


@st.composite
def queries(draw):
    """A drawn text, or now and then a union of two of one arity."""
    first = draw(st.sampled_from(TEXTS))
    if draw(st.integers(0, 2)):
        return first
    arity = len(parse_datalog(first).head)
    second = draw(st.sampled_from([
        text for text in TEXTS if len(parse_datalog(text).head) == arity
    ]))
    return f"{first}; {second}"


def derivations(engine, rewriting):
    """The rewriting's bindings by output tuple, as the executor
    derives them, after checking them against ``reference_bindings``."""
    grouped = engine._bindings(rewriting, None)
    expected = Counter(
        frozenset(binding.items()) for binding in reference_bindings(
            rewriting.query, engine.db, virtual=engine.materialized_views()
        )
    )
    assert Counter(
        frozenset(binding.items())
        for bindings in grouped.values() for binding in bindings
    ) == expected
    return grouped


def reference_disjunct(engine, disjunct):
    """Defs 3.1–3.3 for one conjunctive query, per binding and per
    tuple: its rewritings and, per output tuple, every rewriting's
    polynomial and the ``+R`` of the kept ones."""
    rewritings = tuple(engine.rewriting_engine.rewrite(disjunct))
    pruned = engine._pruned(rewritings)
    evaluated = []
    for rewriting in rewritings:
        per_tuple = {}
        for output, bindings in derivations(engine, rewriting).items():
            terms = {}
            for binding in bindings:
                monomial = engine._binding_monomial(rewriting, binding)
                terms[monomial] = terms.get(monomial, 0) + 1
            per_tuple[output] = ProvenancePolynomial(terms)
        evaluated.append(per_tuple)
    zero = ProvenancePolynomial.zero()
    outputs = dict.fromkeys(
        output for per_tuple in evaluated for output in per_tuple
    )
    tuples = {}
    for output in outputs:
        polynomials = [per_tuple.get(output, zero) for per_tuple in evaluated]
        tuples[output] = (polynomials, engine._combine_rewritings([
            polynomial for position, polynomial in enumerate(polynomials)
            if position not in pruned
        ]))
    return rewritings, tuples


def reference(engine, text):
    """The citation of ``text`` with nothing shared between bindings or
    tuples: its rewritings, per-tuple ``(per_rewriting, polynomial)``,
    aggregate, ``citation()`` payload and per-tuple records."""
    query = parse_datalog(text)
    disjuncts = [
        reference_disjunct(engine, disjunct) for disjunct in (
            engine._minimal_disjuncts(query)
            if isinstance(query, UnionQuery) else (query,)
        )
    ]
    order = engine.policy.order
    outputs = dict.fromkeys(
        output for __, tuples in disjuncts for output in tuples
    )
    tuples = {}
    for output in outputs:
        derived = [found.get(output) for __, found in disjuncts]
        combined = engine._plus([
            pair[1] for pair in derived if pair is not None
        ])
        if len(disjuncts) > 1 and order is not None:
            combined = engine._normal_form(combined, order)
        per_rewriting = [
            polynomial
            for (rewritings, __), pair in zip(disjuncts, derived)
            for polynomial in (
                pair[0] if pair is not None
                else [ProvenancePolynomial.zero()] * len(rewritings)
            )
        ]
        tuples[output] = (per_rewriting, combined)
    aggregate = engine._plus([combined for __, combined in tuples.values()])
    if order is not None:
        aggregate = absorbing_sum([aggregate], order)
    payload, records = reference_citation(engine, SimpleNamespace(
        query=query,
        tuples={
            output: SimpleNamespace(polynomial=combined)
            for output, (__, combined) in tuples.items()
        },
    ))
    rewritings = [
        rewriting for found, __ in disjuncts for rewriting in found
    ]
    return rewritings, tuples, aggregate, payload, records


def assert_matches_reference(engine, text, result):
    rewritings, tuples, aggregate, payload, records = reference(engine, text)
    assert [repr(r) for r in result.rewritings] == [
        repr(r) for r in rewritings
    ]
    assert list(result.tuples) == list(tuples)
    for (output, (per_rewriting, combined)), tc, tuple_records in zip(
        tuples.items(), result.tuples.values(), records,
    ):
        assert repr(tc.polynomial) == repr(combined), output
        assert [repr(p) for p in tc.per_rewriting] == [
            repr(p) for p in per_rewriting
        ], output
        assert as_json(tc.records) == as_json(tuple_records), output
    assert repr(result.aggregate_polynomial) == repr(aggregate)
    assert as_json(result.citation()) == as_json(payload)


class TestMemoizedMatchesPerBinding:
    @given(
        st.sampled_from(POLICIES),
        st.lists(
            st.tuples(
                st.sampled_from("abcd"), st.sampled_from(VALUES),
                st.sampled_from(["g1", "g2"]),
            ),
            min_size=1, max_size=10,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(VALUES), st.sampled_from(["t1", "t2", "t3"]),
            ),
            max_size=6,
        ),
        st.lists(queries(), min_size=1, max_size=3),
    )
    # ``b`` holds only 1.0 after ``a`` holds 1, and ``d`` only -0.0
    # after ``c`` holds 0.0: one shared key for equal values would name
    # ``b``'s and ``d``'s tokens by ``a``'s and ``c``'s.
    @example(
        POLICIES[1],
        [("a", 1, "g1"), ("b", 1.0, "g1"), ("c", 0.0, "g2"),
         ("d", -0.0, "g2"), ("a", True, "g2")],
        [(1.0, "t1"), (-0.0, "t2"), (True, "t3")],
        [TEXTS[0], TEXTS[3], TEXTS[7]],
    )
    @settings(max_examples=200, deadline=None)
    def test_citations_match(self, policy, items, tags, batch):
        engine = CitationEngine(build(items, tags), REGISTRY, policy=policy)
        for text, result in zip(batch, engine.cite_batch(batch)):
            assert_matches_reference(engine, text, result)
        # Warm: every cache hit, every per-citation memo built anew.
        assert_matches_reference(engine, batch[0], engine.cite(batch[0]))
