"""Caching of rewritings across queries (Section 4: "caching and
materialization").

Rewriting enumeration is the expensive step of citation generation, but
its result depends only on the query's *structure*: two queries identical
up to variable renaming share the same rewritings modulo that renaming.
:class:`CachedRewritingEngine` canonicalizes queries (deterministic
variable renaming) and memoizes the enumeration, so repeated or
template-shaped workloads (the common case for repository front-ends) pay
the Def 2.2 search once.  Every
:class:`~repro.citation.generator.CitationEngine` rewrites through one.

Note constants are part of the structure: ``Ty = "gpcr"`` and
``Ty = "vgic"`` cache separately (their absorbed λ-values differ).  A
constant-generalizing cache is possible but changes absorbed parameters;
we keep the sound per-structure cache.
"""

from __future__ import annotations

from repro.cq.canonical import canonical_key
from repro.cq.query import ConjunctiveQuery
from repro.rewriting.engine import RewritingEngine
from repro.rewriting.rewriting import Rewriting
from repro.util.lru import VersionedLRU
from repro.views.registry import ViewRegistry

__all__ = ["CachedRewritingEngine", "cached_engine", "canonical_key"]

# ``canonical_key`` now lives in :mod:`repro.cq.canonical` so the query
# planner (repro.cq.plan) can share the α-equivalence cache key without
# importing upward into the citation layer; it is re-exported here for
# backward compatibility.

#: Default rewriting-cache bound: generous for template-shaped traffic,
#: finite under millions-of-distinct-queries traffic.
DEFAULT_MAX_ENTRIES = 4096


class CachedRewritingEngine(VersionedLRU[str, list[Rewriting]]):
    """A memoizing wrapper around :class:`RewritingEngine`.

    The cache is keyed by :func:`canonical_key`; cached rewritings are
    *not* renamed back to the caller's variable names — the citation
    pipeline only consumes the rewriting structurally (its own query's
    variables), so α-equivalent reuse is sound as long as callers use
    the rewriting's query rather than the original's variable names,
    which :class:`~repro.citation.generator.CitationEngine` does.

    Rewritings depend only on the (static) view registry, so entries
    carry no version tags; the LRU bound (``max_entries``) keeps traffic
    with millions of distinct query structures from growing the cache
    without limit.
    """

    def __init__(
        self, engine: RewritingEngine, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        super().__init__(max_entries, "rewriting cache")
        self.engine = engine

    def rewrite(self, query: ConjunctiveQuery) -> list[Rewriting]:
        key = canonical_key(query)
        rewritings = self.get(key)
        if rewritings is None:
            rewritings = self.engine.rewrite(query)
            self.put(key, rewritings)
        return rewritings


def cached_engine(
    registry: ViewRegistry, **engine_options
) -> CachedRewritingEngine:
    """Convenience constructor."""
    return CachedRewritingEngine(RewritingEngine(registry, **engine_options))
