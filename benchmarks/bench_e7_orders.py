"""E7 (Examples 3.6-3.8): order relations and absorption.

Paper claims: the three order constructions behave as described — fewer
views preferred (3.6), fewer uncovered C_R atoms preferred (3.7), included
views preferred (3.8) — and normal forms remove dominated monomials.
Benchmark: normal-form computation over growing polynomials, and the
absorbing ``Agg`` of a type-wide citation against the all-pairs
definition.
"""

import time
from collections import Counter

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    ViewInclusionOrder,
    absorbing_sum,
    best_polynomials,
    normal_form,
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
