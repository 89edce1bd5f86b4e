"""E7 (Examples 3.6-3.8): order relations and absorption.

Paper claims: the three order constructions behave as described — fewer
views preferred (3.6), fewer uncovered C_R atoms preferred (3.7), included
views preferred (3.8) — and normal forms remove dominated monomials.
Benchmark: normal-form computation over growing polynomials, and the
absorbing ``Agg`` of a type-wide citation against the all-pairs
definition.
"""

import dataclasses
import json
import time
from collections import Counter

import pytest

from repro.citation import combiners, generator
from repro.citation.generator import CitationEngine
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    ViewInclusionOrder,
    absorbing_sum,
    best_polynomials,
    normal_form,
    token_shape,
)
from repro.citation.policy import focused_policy
from repro.citation.polynomial import idempotent_sum, monomial_from_tokens
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.gtopdb.generator import GtopdbGenerator
from repro.semiring.polynomial import ProvenancePolynomial


def vt(name, *params):
    return ViewCitationToken(name, params)


def make_polynomial(size: int) -> ProvenancePolynomial:
    """A polynomial with `size` monomials of growing view counts."""
    monomials = {}
    for index in range(size):
        tokens = [vt(f"V{1 + index % 5}", str(index // 5 + 10))] * 1
        tokens += [vt("V2", str(j)) for j in range(index % 4)]
        if index % 3 == 0:
            tokens.append(BaseRelationToken("FC"))
        monomials[monomial_from_tokens(tokens)] = 1
    return ProvenancePolynomial(monomials)


def test_e7_example_36_fewest_views(benchmark):
    order = FewestViewsOrder()
    two = monomial_from_tokens([vt("V1", "13"), vt("V2", "13")])
    one = monomial_from_tokens([vt("V5", "gpcr")])
    polynomial = ProvenancePolynomial({two: 1, one: 1})
    nf = benchmark(normal_form, polynomial, order)
    assert nf.monomials() == [one]


def test_e7_example_37_fewest_uncovered(benchmark):
    order = FewestUncoveredOrder()
    uncovered = monomial_from_tokens([
        vt("V1", "13"), BaseRelationToken("FC"),
    ])
    covered = monomial_from_tokens([vt("V1", "13"), vt("V2", "13")])
    polynomial = ProvenancePolynomial({uncovered: 1, covered: 1})
    nf = benchmark(normal_form, polynomial, order)
    assert nf.monomials() == [covered]


def test_e7_example_38_view_inclusion(benchmark, registry):
    order = ViewInclusionOrder(registry)
    general = monomial_from_tokens([vt("V3")])
    specific = monomial_from_tokens([vt("V1", "11")])
    polynomial = ProvenancePolynomial({general: 1, specific: 1})
    nf = benchmark(normal_form, polynomial, order)
    assert nf.monomials() == [specific]


@pytest.mark.parametrize("size", [8, 32, 128])
def test_e7_normal_form_scaling(benchmark, size):
    order = FewestViewsOrder()
    polynomial = make_polynomial(size)
    nf = benchmark(normal_form, polynomial, order)
    # Normal form keeps only minimal-view-count monomials.
    from repro.citation.polynomial import view_token_count
    minimum = min(view_token_count(m) for m in polynomial.monomials())
    assert all(view_token_count(m) == minimum for m in nf.monomials())


def test_e7_plus_r_best(benchmark, registry):
    order = FewestViewsOrder()
    polys = [
        ProvenancePolynomial({
            monomial_from_tokens([vt("V1", "13"), vt("V2", "13")]): 1,
        }),
        ProvenancePolynomial({
            monomial_from_tokens([vt("V5", "gpcr")]): 1,
        }),
    ]
    kept = benchmark(best_polynomials, polys, order)
    assert kept == [polys[1]]


def pairwise_normal_form(polynomial, order):
    """Section 3.4's normal form by its definition: every monomial
    against every other (the reference for the speed-up below)."""
    monomials = polynomial.monomials()
    kept = {}
    for monomial in monomials:
        dominated = any(
            other != monomial and order.strictly_less(monomial, other)
            for other in monomials
        )
        if not dominated:
            kept[monomial] = polynomial.terms[monomial]
    return ProvenancePolynomial(kept)


def family_only_aggregate(families, registry):
    """The Agg polynomial (Def 3.4), before absorption, of the
    ``Family``-only citation of the largest type, and the order that
    absorbs it: one ``C[V1(f)]`` per family plus ``C[V4(type)]``."""
    db = GtopdbGenerator(
        families=families, persons=families // 2, types=10
    ).build()
    counts = Counter(row[2] for row in db.relation("Family"))
    largest = max(sorted(counts), key=counts.__getitem__)
    engine = CitationEngine(db, registry, policy=focused_policy(registry))
    result = engine.cite(f'Q(N) :- Family(F, N, Ty), Ty = "{largest}"')
    aggregate = idempotent_sum(
        tc.polynomial for tc in result.tuples.values()
    )
    return aggregate, engine.policy.order


def test_e7_type_wide_aggregate_absorption(benchmark, registry, quick):
    """The maximal-elements absorption is exact and at least 2× faster
    than the all-pairs definition on a type-wide aggregate (~150
    monomials under ``--quick``, ~700 at full size)."""
    aggregate, order = family_only_aggregate(450 if quick else 2000,
                                             registry)
    started = time.perf_counter()
    expected = pairwise_normal_form(aggregate, order)
    pairwise = time.perf_counter() - started
    fast = None
    for __ in range(3):
        started = time.perf_counter()
        absorbing_sum([aggregate], order)
        elapsed = time.perf_counter() - started
        fast = elapsed if fast is None else min(fast, elapsed)
    result = benchmark(absorbing_sum, [aggregate], order)
    assert list(result.terms.items()) == list(expected.terms.items())
    speedup = pairwise / fast
    benchmark.extra_info["monomials"] = len(aggregate.monomials())
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= 2, (
        f"{len(aggregate.monomials())} monomials: maximal {fast:.6f}s, "
        f"pairwise {pairwise:.6f}s, speedup {speedup:.2f}x"
    )


class UnshapedChain(LexicographicOrder):
    """A lexicographic chain that declares no shape: the engine asks it
    for every tuple."""


def snapshot(result):
    """Everything a citation returns, in a comparable form."""
    return (
        json.dumps(result.citation(), default=str),
        [
            (output, [list(p.terms.items()) for p in tc.per_rewriting],
             list(tc.polynomial.terms.items()))
            for output, tc in result.tuples.items()
        ],
        list(result.aggregate_polynomial.terms.items()),
    )


def test_e7_type_wide_plus_r_memo(registry, quick, monkeypatch):
    """Section 3.4 once per tuple shape: the intro citation of the
    largest type under the focused policy equals the same chain asked
    for every tuple, with at most one ``best_polynomials`` or
    ``normal_form`` call per distinct shape cold and none warm.  Each
    distinct value is built once per citation: the absorption memo is
    asked once per distinct vector of per-rewriting polynomials, a
    monomial built once per distinct λ-valuation of each kept
    rewriting, and ``+`` run once per distinct combined polynomial.
    These are counts of the generator's calls, not timings."""
    families = 450 if quick else 2000
    db = GtopdbGenerator(
        families=families, persons=families // 2, types=10
    ).build()
    counts = Counter(row[2] for row in db.relation("Family"))
    largest = max(sorted(counts), key=counts.__getitem__)
    text = ("Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), "
            f'Ty = "{largest}"')
    policy = focused_policy(registry)
    chain = [FewestUncoveredOrder(), FewestViewsOrder(),
             ViewInclusionOrder(registry)]
    expected = snapshot(CitationEngine(
        db, registry,
        policy=dataclasses.replace(policy, order=UnshapedChain(chain)),
    ).cite(text))

    calls = []
    for name in ("best_polynomials", "normal_form"):
        absorb = getattr(generator, name)

        def counted(polynomials, order, _name=name, _absorb=absorb):
            shaped = polynomials if _name == "best_polynomials" else [
                polynomials
            ]
            calls.append((_name, token_shape(shaped)))
            return _absorb(polynomials, order)

        monkeypatch.setattr(generator, name, counted)
    built = []
    build = CitationEngine._binding_monomial

    def counted_monomial(self, rewriting, binding):
        monomial = build(self, rewriting, binding)
        built.append((rewriting, monomial))
        return monomial

    monkeypatch.setattr(CitationEngine, "_binding_monomial", counted_monomial)
    pluses = []
    plus = combiners.PLUS_INTERPRETATIONS["union"]

    def counted_plus(alternatives, key):
        pluses.append(alternatives)
        return plus(alternatives, key)

    monkeypatch.setitem(combiners.PLUS_INTERPRETATIONS, "union", counted_plus)
    engine = CitationEngine(db, registry, policy=policy)
    cold = engine.cite(text)
    assert calls and None not in {shape for __, shape in calls}
    assert len(set(calls)) == len(calls), "a shape was decided twice"
    cold_calls = len(calls)
    del calls[:]
    made = [(built[:], len(pluses))]
    del built[:], pluses[:]
    warm = engine.cite(text)
    assert calls == []
    made.append((built[:], len(pluses)))
    kept = [
        position for position in range(len(cold.rewritings))
        if position not in cold.pruned
    ]
    for result, (monomials, plus_calls) in zip((cold, warm), made):
        # Read after the counts: per_rewriting computes the skipped
        # rewritings, monomial by monomial.
        valuations = {
            (id(result.rewritings[position]), monomial)
            for tc in result.tuples.values()
            for position in kept
            for monomial in tc.per_rewriting[position].terms
        }
        assert len(monomials) == len(valuations)
        assert {(id(r), m) for r, m in monomials} == valuations
        assert plus_calls == len({
            tc.polynomial for tc in result.tuples.values()
        })
    assert snapshot(cold) == expected
    assert snapshot(warm) == expected
    vectors = {
        tuple(tc.per_rewriting[position] for position in kept)
        for tc in cold.tuples.values()
    }
    memo = engine.absorption_memo.counters()
    assert memo["misses"] == memo["size"] == cold_calls
    assert memo["hits"] + memo["misses"] == 4 * len(vectors)
