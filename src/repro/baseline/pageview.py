"""The page-view baseline: citations only for pre-registered pages.

A *page* is one instantiation of one citation view (a family landing page
= ``V1`` at a concrete family id).  The baseline can cite a query only if
the query is *equivalent to one page's view instance*; anything else —
any join, any projection difference, any predicate not matching a page —
gets no citation.  This is precisely the limitation the paper's model
removes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.cq.containment import are_equivalent
from repro.cq.query import ConjunctiveQuery
from repro.relational.database import Database
from repro.views.registry import ViewRegistry


@dataclass(frozen=True)
class _Page:
    view_name: str
    params: tuple[Any, ...]
    instantiated: ConjunctiveQuery


class PageViewBaseline:
    """Hard-coded citations for a fixed set of web-page views.

    Parameters
    ----------
    db:
        The database (used to compute each page's hard-coded citation at
        registration time, as GtoPdb's page generator does).
    registry:
        The citation views backing the pages.
    """

    def __init__(self, db: Database, registry: ViewRegistry) -> None:
        self.db = db
        self.registry = registry
        self._pages: list[_Page] = []
        self._citations: dict[tuple[str, tuple[Any, ...]], dict] = {}

    # -- page registration ---------------------------------------------------

    def register_page(
        self, view_name: str, params: Sequence[Any] = ()
    ) -> dict:
        """Register one page and hard-code its citation (returned)."""
        view = self.registry.get(view_name)
        params_tuple = tuple(params)
        instantiated = (
            view.view.instantiate(list(params_tuple))
            if params_tuple else view.view
        )
        page = _Page(view_name, params_tuple, instantiated)
        self._pages.append(page)
        citation = view.citation_for(self.db, params_tuple)
        self._citations[(view_name, params_tuple)] = citation
        return citation

    def register_all_pages(self, view_name: str) -> int:
        """Register a page per existing λ-valuation of a view.

        E.g. one family landing page per family id — how a site generator
        would enumerate pages.  Returns the number of pages registered.
        """
        view = self.registry.get(view_name)
        if not view.is_parameterized:
            self.register_page(view_name)
            return 1
        positions = view.parameter_positions()
        valuations: dict[tuple[Any, ...], None] = {}
        for row in view.instance(self.db):
            valuations.setdefault(tuple(row[i] for i in positions))
        for valuation in valuations:
            self.register_page(view_name, valuation)
        return len(valuations)

    # -- citation ------------------------------------------------------------

    def cite(self, query: ConjunctiveQuery) -> dict | None:
        """The page citation if the query *is* a page, else None."""
        for page in self._pages:
            if len(page.instantiated.head) != len(query.head):
                continue
            if are_equivalent(query, page.instantiated):
                return self._citations[(page.view_name, page.params)]
        return None

    def can_cite(self, query: ConjunctiveQuery) -> bool:
        return self.cite(query) is not None

    def coverage(self, queries: Sequence[ConjunctiveQuery]) -> float:
        """Fraction of queries the baseline can cite."""
        if not queries:
            return 0.0
        covered = sum(1 for query in queries if self.can_cite(query))
        return covered / len(queries)
