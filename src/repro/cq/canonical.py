"""Canonical forms of conjunctive queries (α-equivalence).

Two queries that differ only in variable names describe the same
computation: they share rewritings (modulo renaming) and — because cost
estimation only looks at structure and statistics — the same query plan.
This module provides the renaming-invariant *canonical key* used by the
plan cache (:class:`repro.cq.plan.QueryPlanner`), its constant-lifting
twin :func:`template_structure`, on which the rewriting cache
(:mod:`repro.citation.cache`) builds its keys, plus :func:`canonicalize`,
which produces an actual canonical query together with the renaming, so
cached artifacts built for the canonical form can be mapped back to the
caller's variables.
"""

from __future__ import annotations

from repro.cq.atoms import RelationalAtom
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Term, Variable


def _canonical_parts(
    query: ConjunctiveQuery,
    slots: dict[str, tuple[str, Constant]] | None = None,
) -> tuple[dict[Variable, Variable], list[str]]:
    """The canonical renaming and the key parts, in one traversal.

    Variables are renamed ``v0, v1, ...`` in order of first occurrence
    across the head, the atoms (in order), and the comparisons (sorted by
    their canonical repr after renaming is deterministic enough for our
    construction order).  λ-parameters, when present, form a last part
    (in order): binding a variable makes a different query.  Constants
    are written by value, unless ``slots`` is given: then each distinct
    constant text is lifted into a slot ``$0, $1, ...``, numbered by
    first occurrence and recorded in ``slots`` (text -> slot, constant).
    """
    renaming: dict[Variable, Variable] = {}

    def canon(term: Term) -> str:
        if isinstance(term, Variable):
            canonical = renaming.get(term)
            if canonical is None:
                canonical = renaming[term] = Variable(f"v{len(renaming)}")
            return canonical.name
        text = repr(term)
        if slots is None or not isinstance(term, Constant):
            return text
        slot = slots.get(text)
        if slot is None:
            slot = slots[text] = (f"${len(slots)}", term)
        return slot[0]

    parts = ["H:" + ",".join(canon(t) for t in query.head)]
    for atom in query.atoms:
        parts.append(
            f"A:{atom.relation}(" + ",".join(canon(t) for t in atom.terms)
            + ")"
        )
    comparison_parts = []
    for comparison in query.comparisons:
        normalized = comparison.normalized()
        comparison_parts.append(
            f"C:{canon(normalized.left)}{normalized.op}"
            f"{canon(normalized.right)}"
        )
    parts.extend(sorted(comparison_parts))
    if query.parameters:
        parts.append("P:" + ",".join(canon(p) for p in query.parameters))
    return renaming, parts


def canonical_key(query: ConjunctiveQuery) -> str:
    """A cache key invariant under variable renaming.

    Two α-equivalent queries map to the same key; distinct structures map
    to distinct keys.
    """
    __, parts = _canonical_parts(query)
    return "|".join(parts)


def template_structure(
    query: ConjunctiveQuery,
) -> tuple[str, tuple[Constant, ...]]:
    """The canonical key with constants lifted into slots, and the
    constants in slot order.

    Queries that differ only in the values of their constants share the
    key; the slots keep the equality pattern among the constants' texts
    (``$0`` twice is the same constant twice; ``0.0`` and ``-0.0``,
    equal constants that print apart, take two slots).
    """
    slots: dict[str, tuple[str, Constant]] = {}
    __, parts = _canonical_parts(query, slots)
    return "|".join(parts), tuple(constant for __, constant in slots.values())


def canonical_key_and_renaming(
    query: ConjunctiveQuery,
) -> tuple[str, dict[Variable, Variable]]:
    """Key and ``original -> canonical`` renaming in a single traversal.

    Cache consumers need both on every lookup (the renaming rebinds the
    cached artifact to the caller's variables); computing them together
    keeps the hot path to one pass over the query.
    """
    renaming, parts = _canonical_parts(query)
    return "|".join(parts), renaming


def canonical_query(
    query: ConjunctiveQuery, renaming: dict[Variable, Variable]
) -> ConjunctiveQuery:
    """Build the canonical representative given a precomputed renaming."""

    def canon_term(term: Term) -> Term:
        if isinstance(term, Variable):
            return renaming[term]
        return term

    head = [canon_term(t) for t in query.head]
    atoms = [
        RelationalAtom(atom.relation, [canon_term(t) for t in atom.terms])
        for atom in query.atoms
    ]
    comparisons = sorted(
        (
            comparison.normalized().substitute(renaming)
            for comparison in query.comparisons
        ),
        key=repr,
    )
    parameters = [renaming[p] for p in query.parameters]
    return ConjunctiveQuery(query.name, head, atoms, comparisons, parameters)


def canonicalize(
    query: ConjunctiveQuery,
) -> tuple[ConjunctiveQuery, dict[Variable, Variable]]:
    """The canonical representative of ``query``'s α-equivalence class.

    Returns the canonical query (variables ``v0..vn``, comparisons
    normalized and sorted) and the renaming ``original -> canonical``.
    Queries with the same :func:`canonical_key` canonicalize to equal
    canonical queries, so structures computed for the canonical form (a
    query plan, say) can be shared and rebound through the inverse
    renaming.
    """
    renaming, __ = _canonical_parts(query)
    return canonical_query(query, renaming), renaming
