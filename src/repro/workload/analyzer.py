"""Query-log analysis: the statistics behind view suggestion.

Section 4 proposes "using logs to understand database usage".  The
:class:`LogAnalyzer` computes the usage statistics a database owner would
inspect before (or instead of) automatic suggestion:

- relation access frequencies (weighted by query frequency);
- join-pattern frequencies (which relation pairs are joined, over which
  column positions);
- selection profiles (which relation positions are filtered, with which
  constants) — these are the λ-parameter candidates;
- projection profiles (which positions actually reach query heads).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.workload.logs import QueryLog


@dataclass
class JoinPattern:
    """Two relation occurrences sharing a variable at given positions."""

    left_relation: str
    left_position: int
    right_relation: str
    right_position: int

    def key(self) -> tuple:
        # Canonical orientation for counting.
        left = (self.left_relation, self.left_position)
        right = (self.right_relation, self.right_position)
        return tuple(sorted((left, right)))

    def __str__(self) -> str:
        return (f"{self.left_relation}[{self.left_position}] ⋈ "
                f"{self.right_relation}[{self.right_position}]")


@dataclass
class LogProfile:
    """Aggregated usage statistics of a query log."""

    total_queries: int = 0
    total_frequency: int = 0
    relation_counts: Counter = field(default_factory=Counter)
    join_counts: Counter = field(default_factory=Counter)
    selection_counts: Counter = field(default_factory=Counter)
    selection_constants: dict[tuple[str, int], Counter] = field(
        default_factory=dict
    )
    projection_counts: Counter = field(default_factory=Counter)

    def top_relations(self, k: int = 5) -> list[tuple[str, int]]:
        return self.relation_counts.most_common(k)

    def top_selections(self, k: int = 5) -> list[tuple[tuple[str, int], int]]:
        """Most-filtered (relation, position) pairs — λ candidates."""
        return self.selection_counts.most_common(k)

    def describe(self) -> str:
        lines = [
            f"{self.total_queries} queries, "
            f"{self.total_frequency} executions",
            "relations: " + ", ".join(
                f"{name}×{count}"
                for name, count in self.relation_counts.most_common()
            ),
        ]
        if self.join_counts:
            lines.append("joins: " + ", ".join(
                f"{left[0]}[{left[1]}]~{right[0]}[{right[1]}]×{count}"
                for (left, right), count in self.join_counts.most_common(5)
            ))
        if self.selection_counts:
            lines.append("selections (λ candidates): " + ", ".join(
                f"{relation}[{position}]×{count}"
                for (relation, position), count
                in self.selection_counts.most_common(5)
            ))
        return "\n".join(lines)


class LogAnalyzer:
    """Computes a :class:`LogProfile` from a :class:`QueryLog`."""

    def analyze(self, log: QueryLog) -> LogProfile:
        profile = LogProfile()
        for entry in log:
            profile.total_queries += 1
            profile.total_frequency += entry.frequency
            self._analyze_query(entry.query, entry.frequency, profile)
        return profile

    def _analyze_query(
        self,
        query: ConjunctiveQuery,
        weight: int,
        profile: LogProfile,
    ) -> None:
        # Relation accesses.
        for atom in query.atoms:
            profile.relation_counts[atom.relation] += weight

        # Variable occurrence sites: variable -> [(relation, position)].
        sites: dict[Variable, list[tuple[str, int]]] = {}
        for atom in query.atoms:
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    sites.setdefault(term, []).append(
                        (atom.relation, position)
                    )
                else:
                    # Inline constants are selections.
                    key = (atom.relation, position)
                    profile.selection_counts[key] += weight
                    profile.selection_constants.setdefault(
                        key, Counter()
                    )[term.value] += weight

        # Join patterns: every pair of distinct sites of a shared var.
        for occurrences in sites.values():
            for i in range(len(occurrences)):
                for j in range(i + 1, len(occurrences)):
                    left, right = occurrences[i], occurrences[j]
                    pattern = JoinPattern(
                        left[0], left[1], right[0], right[1]
                    )
                    profile.join_counts[pattern.key()] += weight

        # Comparison selections: var op const.
        for comparison in query.comparisons:
            for var_side, const_side in (
                (comparison.left, comparison.right),
                (comparison.right, comparison.left),
            ):
                if isinstance(var_side, Variable) and isinstance(
                        const_side, Constant):
                    for site in sites.get(var_side, ()):
                        profile.selection_counts[site] += weight
                        profile.selection_constants.setdefault(
                            site, Counter()
                        )[const_side.value] += weight

        # Projections: which sites reach the head.
        for term in query.head:
            if isinstance(term, Variable):
                for site in sites.get(term, ()):
                    profile.projection_counts[site] += weight


def analyze_log(log: QueryLog) -> LogProfile:
    """One-call analysis."""
    return LogAnalyzer().analyze(log)
