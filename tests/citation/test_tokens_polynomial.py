"""Tests for citation tokens, monomials, polynomials."""

from repro.citation.polynomial import (
    base_token_count,
    base_tokens,
    idempotent_sum,
    monomial_from_tokens,
    polynomial_from_monomials,
    view_token_count,
    view_tokens,
)
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.semiring.polynomial import ProvenancePolynomial


def vt(name, *params):
    return ViewCitationToken(name, params)


class TestTokens:
    def test_view_token_identity(self):
        assert vt("V1", "11") == vt("V1", "11")
        assert vt("V1", "11") != vt("V1", "12")
        assert vt("V1") != vt("V2")

    def test_view_vs_base_token(self):
        assert vt("R") != BaseRelationToken("R")

    def test_base_token_identity(self):
        assert BaseRelationToken("R") == BaseRelationToken("R")
        assert BaseRelationToken("R") != BaseRelationToken("S")

    def test_hashable(self):
        tokens = {vt("V1", "11"), vt("V1", "11"), BaseRelationToken("R")}
        assert len(tokens) == 2

    def test_repr(self):
        assert repr(vt("V1", "11")) == "C[V1('11')]"
        assert repr(vt("V3")) == "C[V3]"
        assert repr(BaseRelationToken("FC")) == "C_R[FC]"


class TestMonomialHelpers:
    def test_monomial_from_tokens(self):
        m = monomial_from_tokens([vt("V1", "11"), vt("V2", "11")])
        assert m.degree == 2

    def test_view_and_base_partition(self):
        m = monomial_from_tokens([
            vt("V1", "11"), BaseRelationToken("FC"), BaseRelationToken("FC"),
        ])
        assert view_tokens(m) == [vt("V1", "11")]
        assert base_tokens(m) == [BaseRelationToken("FC")]
        assert view_token_count(m) == 1
        assert base_token_count(m) == 2  # multiplicity counted

    def test_counts_respect_exponents(self):
        m = monomial_from_tokens([vt("V1", "11"), vt("V1", "11")])
        assert view_token_count(m) == 2


class TestPolynomialHelpers:
    def test_polynomial_from_monomials_counts(self):
        m = monomial_from_tokens([vt("V1", "11")])
        p = polynomial_from_monomials([m, m])
        assert p.terms[m] == 2

    def test_idempotent_sum_collapses_coefficients(self):
        m = monomial_from_tokens([vt("V1", "11")])
        p = polynomial_from_monomials([m, m])
        flat = idempotent_sum([p])
        assert flat.terms[m] == 1

    def test_idempotent_sum_unions(self):
        m1 = monomial_from_tokens([vt("V1", "11")])
        m2 = monomial_from_tokens([vt("V2", "11")])
        p1 = polynomial_from_monomials([m1])
        p2 = polynomial_from_monomials([m2, m1])
        combined = idempotent_sum([p1, p2])
        assert set(combined.monomials()) == {m1, m2}

    def test_empty_sum_is_zero(self):
        assert idempotent_sum([]) == ProvenancePolynomial.zero()

    def test_rebuilding_from_existing_monomials_renders_no_token(
        self, monkeypatch
    ):
        # A polynomial orders its monomials by their repr, which each
        # monomial renders once: p.add(q) re-sorts without a token repr.
        p = polynomial_from_monomials([
            monomial_from_tokens([vt("V1", "11"), vt("V2", "11")]),
            monomial_from_tokens([vt("V4", "gpcr")]),
        ])
        q = polynomial_from_monomials([
            monomial_from_tokens([vt("V3")]),
            monomial_from_tokens([vt("V4", "gpcr")]),
        ])
        calls = []
        render = ViewCitationToken.__repr__
        monkeypatch.setattr(
            ViewCitationToken, "__repr__",
            lambda token: calls.append(token) or render(token),
        )
        total = p.add(q)
        assert calls == []
        assert repr(total) == (
            "C[V1('11')]·C[V2('11')] + C[V3] + 2·C[V4('gpcr')]"
        )
