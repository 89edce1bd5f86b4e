"""Explaining citations, union queries, and the rewriting cache.

Three production concerns the core model leaves implicit:

1. **Explanations** — a curator asks "why is this committee credited?";
   :func:`repro.citation.explain` answers with the rewritings found,
   which survived the preference order (and which count absorbed each
   of the others, e.g. ``fewest views: 2 against 1``), and what each
   tuple credits.
2. **Union queries** — users ask for "gpcr or vgic families"; SPJU's U
   combines per-disjunct citations with ``+`` (Section 3.1).
3. **Caching** (Section 4's "caching and materialization") — repository
   front-ends issue the same query shapes over and over; the rewriting
   cache keys a query on its template (constants lifted into slots) and
   pays the Def 2.2 search once per shape.

Run with::

    python examples/explaining_citations.py
"""

import time

from repro import CitationEngine
from repro.citation.explain import explain
from repro.gtopdb import paper_database, paper_registry

QUERY = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'

UNION = (
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)\n'
    'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
)


def main() -> None:
    db = paper_database()
    registry = paper_registry()
    engine = CitationEngine(db, registry)

    # -- 1. explanations ------------------------------------------------
    print("== why is this cited the way it is? ==")
    result = engine.cite(QUERY)
    print(explain(result).describe())

    # -- 2. union queries -------------------------------------------------
    print("\n== union query (SPJU's U) ==")
    union_result = engine.cite_union(UNION)
    for output, tc in union_result.tuples.items():
        print(f"  {output}: {tc.polynomial}")

    # -- 3. rewriting cache ----------------------------------------------
    print("\n== rewriting cache (Section 4: caching) ==")
    cached = CitationEngine(db, registry)  # rewrites through its cache
    template = 'Q(N) :- Family(F, N, Ty), Ty = "{}"'

    start = time.perf_counter()
    for family_type in ("gpcr", "vgic", "gpcr", "gpcr", "vgic"):
        cached.cite(template.format(family_type))
    elapsed = time.perf_counter() - start
    stats = cached.rewriting_engine
    print(f"  5 queries: cache misses {stats.misses}, "
          f"hits {stats.hits}, {elapsed * 1000:.1f} ms total")
    print("  (one Def 2.2 enumeration per query shape: a new constant "
          "gets the shape's rewritings with its absorbed λ-value swapped "
          "in)")


if __name__ == "__main__":
    main()
