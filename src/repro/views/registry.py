"""The registry of citation views a database owner declares.

The paper: "owners of the database specify citations to a small set of
(possibly parameterized) views of the database which represent typical
usage patterns".  A :class:`ViewRegistry` holds those views, validates them
against the database schema, and can materialize their extensions so
rewritings (whose atoms mention view names) can be evaluated directly.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import DuplicateViewError, UnknownRelationError, ViewError
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.views.citation_view import CitationView

if TYPE_CHECKING:  # pragma: no cover
    from repro.cq.plan import QueryPlanner


class ViewRegistry:
    """An ordered collection of citation views over one schema."""

    def __init__(
        self, schema: Schema, views: Sequence[CitationView] = ()
    ) -> None:
        self.schema = schema
        self._views: dict[str, CitationView] = {}
        for view in views:
            self.add(view)

    # -- mutation --------------------------------------------------------------

    def add(self, view: CitationView) -> None:
        """Register a view after validating it against the schema.

        Checks: unique name, no clash with base relations, and every body
        atom of both the view definition and the citation query refers to a
        base relation with the right arity.
        """
        if view.name in self._views:
            raise DuplicateViewError(f"duplicate view name: {view.name!r}")
        if view.name in self.schema:
            raise ViewError(
                f"view name {view.name!r} clashes with a base relation"
            )
        for query in (view.view, view.citation_query):
            for atom in query.atoms:
                if atom.relation not in self.schema:
                    raise UnknownRelationError(atom.relation)
            query.validate_against(self.schema)
        self._views[view.name] = view

    # -- access -----------------------------------------------------------------

    def get(self, name: str) -> CitationView:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"no citation view named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[CitationView]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    # -- materialization -----------------------------------------------------------

    def materialize(
        self,
        db: Database,
        names: Sequence[str] | None = None,
        planner: "QueryPlanner | None" = None,
        pinned: tuple[str, Sequence[Any]] | None = None,
    ) -> dict[str, list[tuple[Any, ...]]]:
        """Compute the full extension of each view (λ-parameters free).

        Because Def 2.1 requires ``X ⊆ Y``, the unparameterized extension
        is the union of all instantiations, so rewritings that mention view
        atoms can be evaluated against these extensions, loaded into a
        view store (:func:`~repro.relational.database.view_store`).  With
        a ``planner`` each extension query goes through the shared plan
        cache, so re-materialization replans nothing.

        With ``pinned=(relation, values)`` each view's *delta* is
        computed instead: the extension tuples that row derives
        (:meth:`~repro.views.citation_view.CitationView.delta`; ``db``
        must contain the row, and ``planner`` is not consulted).
        """
        selected = names if names is not None else self.names
        if pinned is not None:
            relation, values = pinned
            return {
                name: self.get(name).delta(db, relation, values)
                for name in selected
            }
        return {
            name: self.get(name).instance(db, planner=planner)
            for name in selected
        }

    def __repr__(self) -> str:
        return f"ViewRegistry({list(self._views)})"
