"""Temporal citation views: timestamps as λ-parameters (Section 4).

Besides log-based versioning (:mod:`repro.fixity.versioned`), the paper
sketches a second fixity mechanism:

    "This may be captured in our model by including a 'timestamp'
    attribute in base relations, with lambda variables in views
    corresponding to this attribute.  Then, citations could vary across
    timestamps, and our algebraic operators may be used to aggregate (or
    choose some out of) these citations."

This module implements exactly that lifting:

- :func:`lift_schema` adds a trailing ``VTag`` (version-tag) attribute to
  every relation;
- :func:`lift_database` copies a snapshot into the lifted schema under a
  given tag (several snapshots coexist in one database);
- :func:`lift_view` rewrites a citation view so every body atom carries a
  shared timestamp variable that becomes an *additional λ-parameter* —
  instantiating the lifted view at ``(..., tag)`` yields the view as of
  that tag, and the citation query credits the curators recorded then.

Because the timestamp is an ordinary λ-parameter, the whole citation
pipeline (rewriting, absorption, orders) applies unchanged: a query that
pins ``VTag = "2016.2"`` gets the comparison absorbed into the lifted
view's λ-term exactly like ``Ty = "gpcr"`` in Example 2.2.

:class:`TemporalCitationEngine` keeps the lifted database warm behind the
cost-based planner: queries pinned to a snapshot tag plan once per
``(query, tag)`` — the tag rides in the query as an ordinary constant, so
the α-equivalence plan cache separates tags without any bespoke keying —
and loading a snapshot bumps the versions of the lifted relations it
writes, which cached plans are tagged with, so plans over them re-plan
lazily, as after any other write.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.cq.atoms import RelationalAtom
from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlan, QueryPlanner
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Variable
from repro.errors import VersionError
from repro.relational.database import Database
from repro.relational.schema import Attribute, RelationSchema, Schema
from repro.relational.types import STRING
from repro.util.naming import fresh_variable_name
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry

#: Name of the injected version-tag attribute.
VTAG = "VTag"


def lift_schema(schema: Schema) -> Schema:
    """Add a trailing ``VTag`` attribute (part of every key) per relation.

    Foreign keys are dropped in the lifted schema: cross-version
    referential integrity is the versioning layer's concern, and keys now
    include the tag so the same logical row may appear in many versions.
    """
    lifted = []
    for relation in schema:
        attributes = list(relation.attributes) + [Attribute(VTAG, STRING)]
        key = list(relation.key) + [VTAG] if relation.key else []
        lifted.append(RelationSchema(relation.name, attributes, key=key))
    return Schema(lifted)


def lift_database(
    snapshots: Sequence[tuple[str, Database]],
    lifted_schema: Schema | None = None,
) -> Database:
    """Merge tagged snapshots into one temporal database.

    ``snapshots`` is a sequence of ``(tag, database)`` pairs over the same
    (unlifted) schema; every row is copied with the tag appended.
    """
    if not snapshots:
        raise ValueError("need at least one (tag, database) snapshot")
    base_schema = snapshots[0][1].schema
    if lifted_schema is None:
        lifted_schema = lift_schema(base_schema)
    temporal = Database(lifted_schema)
    for tag, db in snapshots:
        for instance in db.relations():
            for row in instance:
                temporal.insert(instance.schema.name, *row.values, tag)
    return temporal


def _lift_query(
    query: ConjunctiveQuery, timestamp: Variable
) -> ConjunctiveQuery:
    """Append the shared timestamp variable to every body atom."""
    atoms = [
        RelationalAtom(atom.relation, list(atom.terms) + [timestamp])
        for atom in query.atoms
    ]
    head = list(query.head) + [timestamp]
    parameters = list(query.parameters) + [timestamp]
    return ConjunctiveQuery(
        query.name, head, atoms, query.comparisons, parameters
    )


def lift_view(view: CitationView) -> CitationView:
    """Lift a citation view to the temporal schema.

    The lifted view gains a trailing head column and λ-parameter ``T``
    (fresh) shared by every body atom of both the view definition and the
    citation query, so one instantiation reads one version consistently.
    """
    used = {v.name for v in view.view.variables()}
    used.update(v.name for v in view.citation_query.variables())
    timestamp = Variable(fresh_variable_name(used, hint="T"))
    return CitationView(
        _lift_query(view.view, timestamp),
        _lift_query(view.citation_query, timestamp),
        view.citation_function,
        labels=tuple(view.labels) + (VTAG,),
        description=(view.description + " (temporal)").strip(),
    )


def lift_registry(
    registry: ViewRegistry, lifted_schema: Schema | None = None
) -> ViewRegistry:
    """Lift every view of a registry onto the lifted schema."""
    if lifted_schema is None:
        lifted_schema = lift_schema(registry.schema)
    return ViewRegistry(
        lifted_schema, [lift_view(view) for view in registry]
    )


def tag_query(query: ConjunctiveQuery, tag: Any) -> ConjunctiveQuery:
    """Rewrite a user query to read one version of the temporal database.

    Every body atom gets a shared fresh timestamp variable pinned to
    ``tag`` by an inline constant — which the rewriting engine then
    absorbs into the lifted views' timestamp λ-parameters, yielding
    version-stamped citations through the ordinary machinery.
    """
    from repro.cq.terms import Constant

    atoms = [
        RelationalAtom(atom.relation, list(atom.terms) + [Constant(tag)])
        for atom in query.atoms
    ]
    return ConjunctiveQuery(
        query.name, query.head, atoms, query.comparisons, query.parameters
    )


class TemporalCitationEngine:
    """Snapshot-pinned queries over one warm, planner-backed temporal DB.

    Snapshots of a base-schema database register under a tag
    (:meth:`register_snapshot`); user queries over the base schema pin a
    tag and run against the merged temporal database through a shared
    :class:`~repro.cq.plan.QueryPlanner`.  The plan cache is *version
    aware* for free: :func:`tag_query` embeds the tag as a constant in
    every atom, so two tags yield two canonical keys — one plan per
    ``(query, tag)`` — and registering a new snapshot bumps the versions
    of the lifted relations it loads, which cached plans are tagged
    with, so they re-plan lazily exactly as after an ordinary bulk load.

    With a ``registry`` (over the *unlifted* base schema) the engine also
    serves version-stamped citations: the registry is lifted
    (:func:`lift_registry`) and a :class:`~repro.citation.generator
    .CitationEngine` over the temporal database answers :meth:`cite`,
    with its own shared planner and materialized lifted views.
    """

    def __init__(
        self,
        base_schema: Schema,
        registry: ViewRegistry | None = None,
        snapshots: Sequence[tuple[str, Database]] = (),
        **engine_options: Any,
    ) -> None:
        self.base_schema = base_schema
        self.lifted_schema = lift_schema(base_schema)
        self.db = Database(self.lifted_schema)
        #: Shared plan cache for snapshot-pinned evaluation; one entry
        #: per (query structure, tag) because the tag is a constant.
        self.planner = QueryPlanner(self.db)
        self._tags: dict[str, None] = {}
        self._engine: Any = None
        if registry is not None:
            from repro.citation.generator import CitationEngine

            # The lifted MetaData holds every snapshot's rows, so a
            # neutral element derived from it would mix versions.
            engine_options.setdefault("database_citation", [])
            self._engine = CitationEngine(
                self.db,
                lift_registry(registry, self.lifted_schema),
                **engine_options,
            )
        elif engine_options:
            raise TypeError("engine options need a registry")
        for tag, snapshot in snapshots:
            self.register_snapshot(tag, snapshot)

    # -- snapshots -----------------------------------------------------------

    @property
    def tags(self) -> tuple[str, ...]:
        """Registered snapshot tags, in registration order."""
        return tuple(self._tags)

    def register_snapshot(self, tag: str, snapshot: Database) -> int:
        """Copy a base-schema snapshot into the temporal DB under ``tag``.

        Returns the number of rows loaded.  The citation engine, if
        any, is refreshed up front, and each relation loads with one
        ``insert_all``.  Loading bumps the versions of the lifted
        relations it writes; cached plans (this engine's and the
        citation engine's) are tagged with those versions, so they
        re-plan lazily.
        """
        if tag in self._tags:
            raise VersionError(f"snapshot tag already registered: {tag!r}")
        if self._engine is not None:
            # Drop the citation engine's views and records up front: with
            # nothing cached, its per-row change hook has no delta work
            # to do while the snapshot loads.
            self._engine.refresh()
        loaded = 0
        for instance in snapshot.relations():
            loaded += len(self.db.insert_all(
                instance.schema.name,
                [(*row.values, tag) for row in instance],
            ))
        self._tags[tag] = None
        return loaded

    def _check_tag(self, tag: str) -> None:
        if tag not in self._tags:
            raise VersionError(f"unknown snapshot tag: {tag!r}")

    def tagged(self, query: ConjunctiveQuery | str, tag: str) -> ConjunctiveQuery:
        """The base-schema query pinned to one registered snapshot."""
        self._check_tag(tag)
        if isinstance(query, str):
            query = parse_query(query)
        return tag_query(query, tag)

    # -- planned evaluation ---------------------------------------------------

    def plan(self, query: ConjunctiveQuery | str, tag: str) -> QueryPlan:
        """The cached cost-based plan for ``query`` as of ``tag``."""
        return self.planner.plan(self.tagged(query, tag))

    def evaluate(
        self,
        query: ConjunctiveQuery | str,
        tag: str,
    ) -> list[tuple[Any, ...]]:
        """Evaluate a base-schema query against one snapshot, planned.

        Results are identical to evaluating the query against the
        original snapshot database directly.
        """
        return evaluate_query(
            self.tagged(query, tag), self.db, planner=self.planner
        )

    def explain(self, query: ConjunctiveQuery | str, tag: str) -> str:
        """EXPLAIN for the snapshot-pinned plan."""
        return (
            f"as of {tag!r}: " + self.plan(query, tag).explain()
        )

    # -- citations ------------------------------------------------------------

    @property
    def citation_engine(self) -> Any:
        """The lifted-registry citation engine (requires a registry)."""
        if self._engine is None:
            raise VersionError(
                "no registry: construct with registry=... to cite"
            )
        return self._engine

    def cite(self, query: ConjunctiveQuery | str, tag: str) -> Any:
        """Cite a base-schema query as of one snapshot.

        The pinned tag constants are absorbed into the lifted views'
        timestamp λ-parameters by the ordinary rewriting machinery, so
        citation records carry the snapshot tag.
        """
        return self.citation_engine.cite(self.tagged(query, tag))
