"""Explanations: why a citation result looks the way it does.

Repositories adopting fine-grained citation need to justify outputs to
curators ("why is this committee credited?").  :func:`explain` walks a
:class:`~repro.citation.generator.CitationResult` and produces a
structured, renderable account:

- the rewritings found, classified per Section 2.2/2.3 (total/partial,
  view count, absorbed λ-parameters, residual comparisons);
- per output tuple, which monomials survived and which views (with which
  λ-valuations) they credit;
- when an order-based policy dropped alternatives, which rewritings were
  absorbed and by which preference criterion: a rewriting the citation
  skipped names the ranked level that decided it and both counts
  (:attr:`~repro.citation.generator.CitationResult.pruned`).

An explanation reads the result's tuples and combined polynomials only,
never :attr:`~repro.citation.generator.TupleCitation.per_rewriting`, so
it evaluates no skipped rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.citation.generator import CitationResult, PrunedRewriting
from repro.citation.polynomial import base_tokens, view_tokens
from repro.rewriting.rewriting import Rewriting


@dataclass
class RewritingExplanation:
    """One rewriting's role in the citation."""

    rewriting: Rewriting
    used: bool  # did any of its monomials survive +R for some tuple?
    #: Why the citation skipped it, when it did.
    pruned: PrunedRewriting | None = None

    def describe(self) -> str:
        kind = "total" if self.rewriting.is_total else "partial"
        bits = [
            f"{kind} rewriting",
            f"{self.rewriting.view_count} view(s)",
        ]
        if self.rewriting.absorbed_parameter_count:
            bits.append(
                f"{self.rewriting.absorbed_parameter_count} comparison(s) "
                "absorbed into λ-parameters"
            )
        if self.rewriting.residual_comparison_count:
            bits.append(
                f"{self.rewriting.residual_comparison_count} residual "
                "selection(s)"
            )
        if self.rewriting.uncovered_count:
            bits.append(
                f"{self.rewriting.uncovered_count} base relation(s) "
                "accessed directly"
            )
        status = "USED" if self.used else "absorbed by preference order"
        if self.pruned is not None:
            status += f" ({self.pruned})"
        return f"[{status}] {self.rewriting.query!r} — {', '.join(bits)}"


@dataclass
class TupleExplanation:
    """Why one output tuple is cited the way it is."""

    output: tuple
    credited_views: list[str] = field(default_factory=list)
    base_accesses: list[str] = field(default_factory=list)
    alternative_count: int = 0

    def describe(self) -> str:
        lines = [f"tuple {self.output}:"]
        if self.credited_views:
            lines.append("  credits " + ", ".join(self.credited_views))
        if self.base_accesses:
            lines.append(
                "  direct access to " + ", ".join(self.base_accesses)
            )
        if self.alternative_count > 1:
            lines.append(
                f"  {self.alternative_count} alternative derivations kept"
            )
        return "\n".join(lines)


@dataclass
class Explanation:
    """The full account of a citation result."""

    result: CitationResult
    rewritings: list[RewritingExplanation]
    tuples: list[TupleExplanation]

    def describe(self) -> str:
        lines = [
            f"Citation explanation for {self.result.query.name} "
            f"(policy={self.result.policy.name})",
            f"{len(self.rewritings)} rewriting(s) found:",
        ]
        for rw in self.rewritings:
            lines.append("  " + rw.describe())
        lines.append("")
        for tc in self.tuples:
            lines.append(tc.describe())
        if not self.tuples:
            lines.append(
                "empty result set: only the database-level citation "
                "applies (Agg neutral element)"
            )
        return "\n".join(lines)


def _views_surviving(result: CitationResult) -> set[str]:
    survivors: set[str] = set()
    for tc in result.tuples.values():
        for monomial in tc.polynomial.monomials():
            for token in view_tokens(monomial):
                survivors.add(token.view_name)
    return survivors


def explain(result: CitationResult) -> Explanation:
    """Build a structured explanation of a citation result."""
    surviving_views = _views_surviving(result)
    rewriting_explanations = []
    for position, rewriting in enumerate(result.rewritings):
        pruned = result.pruned.get(position)
        declared = {a.view.name for a in rewriting.applications}
        used = pruned is None and (
            bool(declared & surviving_views)
            if declared
            else bool(result.tuples)  # identity rewriting w/ C_R tokens
        )
        rewriting_explanations.append(
            RewritingExplanation(rewriting, used, pruned)
        )

    tuple_explanations = []
    for output, tc in result.tuples.items():
        credited: list[str] = []
        bases: list[str] = []
        for monomial in tc.polynomial.monomials():
            for token in view_tokens(monomial):
                label = token.view_name
                if token.parameters:
                    inner = ", ".join(repr(p) for p in token.parameters)
                    label = f"{token.view_name}({inner})"
                if label not in credited:
                    credited.append(label)
            for token in base_tokens(monomial):
                if token.relation not in bases:
                    bases.append(token.relation)
        tuple_explanations.append(TupleExplanation(
            output=output,
            credited_views=credited,
            base_accesses=bases,
            alternative_count=len(tc.polynomial.monomials()),
        ))
    return Explanation(result, rewriting_explanations, tuple_explanations)
