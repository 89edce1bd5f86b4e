"""Caching of rewritings across queries (Section 4: "caching and
materialization").

Rewriting enumeration is the expensive step of citation generation, and
its result depends on a query's constants only through how they
compare.  Example 2.2 absorbs the selection ``Ty = "gpcr"`` into the
λ-parameter of the view that matches it, so the rewritings of
``Ty = "vgic"`` are those of ``Ty = "gpcr"`` with the constant swapped.
:class:`CachedRewritingEngine` therefore keys each query on its
*template* (:func:`template_key`): its canonical structure
(deterministic variable renaming) with each distinct constant lifted
into a slot, plus everything Def 2.2 normalization, minimization, the
coverage descriptors and the validity checks read from the constants'
values.  The first query of a template pays the Def 2.2 search; every
later one gets the stored rewritings with its own constants substituted
(:meth:`~repro.rewriting.rewriting.Rewriting.with_constants`), so
template-shaped workloads (the common case for repository front-ends)
pay it once per shape, not once per constant.  Every
:class:`~repro.citation.generator.CitationEngine` rewrites through one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.cq.canonical import canonical_key, template_structure
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant
from repro.rewriting.engine import RewritingEngine
from repro.rewriting.rewriting import Rewriting, swap_constants
from repro.util.lru import VersionedLRU
from repro.views.registry import ViewRegistry

__all__ = [
    "CachedRewritingEngine", "cached_engine", "canonical_key", "template_key",
]

# ``canonical_key`` now lives in :mod:`repro.cq.canonical` so the query
# planner (repro.cq.plan) can share the α-equivalence cache key without
# importing upward into the citation layer; it is re-exported here for
# backward compatibility.

#: Default rewriting-cache bound: generous for template-shaped traffic,
#: finite under millions-of-distinct-queries traffic.
DEFAULT_MAX_ENTRIES = 4096


def _order(left: Any, right: Any) -> str:
    """How two constant values compare, as every comparison reads it:
    ``<``, ``=`` or ``>``; ``?`` when unordered (NaN), ``~`` when the
    types are incomparable (and ``~=`` when those still test equal)."""
    try:
        if left < right:
            return "<"
        if right < left:
            return ">"
    except TypeError:
        return "~=" if left == right else "~"
    return "=" if left == right else "?"


def _registry_order(constant: Constant, fixed: Constant) -> str:
    """:func:`_order`, with ``==`` when the two constants print alike."""
    order = _order(constant.value, fixed.value)
    return "==" if order == "=" and repr(constant) == repr(fixed) else order


def template_key(
    query: ConjunctiveQuery, registry_constants: tuple[Constant, ...] = ()
) -> tuple[tuple, tuple[Constant, ...]]:
    """The rewriting-cache key of ``query``, and its constants by slot.

    The key is the query's canonical structure with each distinct
    constant lifted into a slot
    (:func:`~repro.cq.canonical.template_structure`, which keeps the
    equality pattern), plus, per slot:

    - the type of its constant (:class:`~repro.cq.terms.Constant`
      equality is type-strict: ``5``, ``5.0``, ``"5"`` and ``true``
      all differ);
    - its order against every other slot;
    - its order against every constant of the registry's view
      definitions (``registry_constants``), and whether the two print
      alike.

    Two queries with equal keys have the same rewritings up to swapping
    their constants slot by slot.
    """
    structure, constants = template_structure(query)
    values = [constant.value for constant in constants]
    orders = [_order(left, right) for left, right in combinations(values, 2)]
    orders.extend(
        _registry_order(constant, fixed)
        for constant in constants for fixed in registry_constants
    )
    return (
        structure, tuple([type(value) for value in values]), " ".join(orders),
    ), constants


def _swap_keeps_order(
    rewritings: list[Rewriting], constants: tuple[Constant, ...]
) -> bool:
    """Whether ``rewritings`` stay sorted whatever constants are swapped
    into ``constants``' places.

    :meth:`Rewriting.sort_key` ends in ``repr(query)``, which reads the
    constants' text.  Two neighbours keep their order when they differ
    before that, or when their reprs differ before either shows a
    constant's text.
    """
    texts = [repr(constant) for constant in constants]

    def first_constant(text: str) -> int:
        return min(
            (at for at in map(text.find, texts) if at >= 0), default=len(text)
        )

    for before, after in zip(rewritings, rewritings[1:]):
        if before.sort_key()[:-1] != after.sort_key()[:-1]:
            continue
        left, right = repr(before.query), repr(after.query)
        cut = min(first_constant(left), first_constant(right))
        if left[:cut] == right[:cut]:
            return False
    return True


class _Template:
    """A cache entry: the first query of a template, the texts of its
    constants by slot, and its rewritings."""

    __slots__ = ("query", "texts", "rewritings", "resort")

    def __init__(
        self, query: ConjunctiveQuery, constants: tuple[Constant, ...],
        rewritings: list[Rewriting],
    ) -> None:
        self.query = query
        self.texts = tuple([repr(constant) for constant in constants])
        self.rewritings = rewritings
        self.resort = not _swap_keeps_order(rewritings, constants)


class CachedRewritingEngine(VersionedLRU[tuple, _Template]):
    """A memoizing wrapper around :class:`RewritingEngine`.

    The cache is keyed by :func:`template_key`.  A query whose constants
    print as its entry's gets the stored list itself; any other gets
    each rewriting with its constants swapped in, in the order
    :meth:`RewritingEngine.rewrite` would give.  Cached rewritings are
    *not* renamed back to the caller's variable names — the citation
    pipeline only consumes the rewriting structurally (its own query's
    variables), so α-equivalent reuse is sound as long as callers use
    the rewriting's query rather than the original's variable names,
    which :class:`~repro.citation.generator.CitationEngine` does.

    Rewritings depend only on the (static) view registry, whose
    constants are read once here, so entries carry no version tags; the
    LRU bound (``max_entries``) keeps traffic with millions of distinct
    query shapes from growing the cache without limit.  Under the
    concurrency sanitizer every swapped serve is re-checked against a
    fresh enumeration
    (:func:`~repro.analysis.sanitizer.check_rewriting_serve`).
    """

    def __init__(
        self, engine: RewritingEngine, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        super().__init__(max_entries, "rewriting cache")
        self.engine = engine
        #: The constants of the registry's view definitions.
        self.registry_constants = tuple({
            constant: None
            for view in engine.registry
            for constant in view.view.constants()
        })

    def rewrite(self, query: ConjunctiveQuery) -> list[Rewriting]:
        key, constants = template_key(query, self.registry_constants)
        entry = self.get(key)
        if entry is None:
            rewritings = self.engine.rewrite(query)
            self.put(key, _Template(query, constants, rewritings))
            return rewritings
        swap = {
            old: new for old, new in zip(entry.texts, constants)
            if repr(new) != old
        }
        if not swap:
            return entry.rewritings
        served = [
            rewriting.with_constants(swap) for rewriting in entry.rewritings
        ]
        if entry.resort:
            served.sort(key=Rewriting.sort_key)
        if _sanitizer._active:
            _sanitizer.check_rewriting_serve(
                self.label, served,
                self.engine.rewrite(swap_constants(entry.query, swap)),
            )
        return served


def cached_engine(
    registry: ViewRegistry, **engine_options
) -> CachedRewritingEngine:
    """Convenience constructor."""
    return CachedRewritingEngine(RewritingEngine(registry, **engine_options))
