"""``repro`` — fine-grained data citation for relational databases.

A complete, from-scratch reproduction of

    Susan B. Davidson, Daniel Deutch, Tova Milo, Gianmaria Silvello.
    "A Model for Fine-Grained Data Citation." CIDR 2017.

The library lets a database owner attach citations to (possibly
λ-parameterized) *citation views* and then automatically generates a
citation for **any** conjunctive query by rewriting it using the views and
combining the views' citations through a semiring-style algebra
(``+``, ``·``, ``+R``, ``Agg``) under a configurable policy.

Quickstart::

    from repro import CitationEngine
    from repro.gtopdb import paper_database, paper_registry

    db = paper_database()
    engine = CitationEngine(db, paper_registry())
    result = engine.cite('Q(N) :- Family(F,N,Ty), Ty = "gpcr"')
    print(result.citation())

Package layout (``docs/index.md`` maps every module):

- :mod:`repro.relational` — in-memory relational engine;
- :mod:`repro.cq` — conjunctive queries, parsing, evaluation, containment;
- :mod:`repro.semiring` — provenance semirings (Green et al.);
- :mod:`repro.views` — citation views (Def 2.1);
- :mod:`repro.rewriting` — rewriting using views (Def 2.2);
- :mod:`repro.citation` — the citation algebra (Section 3) and policies;
- :mod:`repro.gtopdb` — the paper's running-example database;
- :mod:`repro.fixity` — versioned databases and version-stamped citations;
- :mod:`repro.workload` — query workloads, logs, view suggestion;
- :mod:`repro.baseline` — the hard-coded page-view baseline.
"""

from repro.relational import (
    Database,
    Schema,
    RelationSchema,
    Attribute,
    ForeignKey,
)
from repro.cq import (
    ConjunctiveQuery,
    parse_query,
    parse_sql,
    evaluate_query,
    are_equivalent,
    is_contained_in,
    minimize,
)
from repro.views import CitationView, ViewRegistry
from repro.rewriting import RewritingEngine, Rewriting, enumerate_rewritings
from repro.citation import (
    CitationEngine,
    CitationResult,
    CitationPolicy,
    comprehensive_policy,
    focused_policy,
    compact_policy,
    render_json,
    render_text,
    render_xml,
    render_bibtex,
)
from repro.fixity import VersionedDatabase, VersionedCitationEngine
from repro.baseline import PageViewBaseline
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Schema",
    "RelationSchema",
    "Attribute",
    "ForeignKey",
    "ConjunctiveQuery",
    "parse_query",
    "parse_sql",
    "evaluate_query",
    "are_equivalent",
    "is_contained_in",
    "minimize",
    "CitationView",
    "ViewRegistry",
    "RewritingEngine",
    "Rewriting",
    "enumerate_rewritings",
    "CitationEngine",
    "CitationResult",
    "CitationPolicy",
    "comprehensive_policy",
    "focused_policy",
    "compact_policy",
    "render_json",
    "render_text",
    "render_xml",
    "render_bibtex",
    "VersionedDatabase",
    "VersionedCitationEngine",
    "PageViewBaseline",
    "ReproError",
    "__version__",
]
