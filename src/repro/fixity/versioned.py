"""Versioned databases and version-stamped citations.

Implementation: an append-only log of ``insert``/``delete`` events.  A
:class:`Version` marks a prefix of the log; :meth:`VersionedDatabase.as_of`
replays the prefix into a fresh :class:`~repro.relational.database.Database`
(reconstructed states are cached).  This favours simplicity and perfect
fidelity over storage cleverness — exactly what the fixity requirement
needs at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.citation.generator import CitationEngine, CitationResult, Record
from repro.citation.policy import CitationPolicy
from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlan
from repro.cq.query import ConjunctiveQuery
from repro.errors import VersionError
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.util.lru import VersionedLRU
from repro.views.registry import ViewRegistry

#: Committed versions held reconstructed at once, as snapshots and as
#: citation engines over them: each is a whole database, so keep only a
#: handful; replays rebuild evicted versions.
MAX_HELD_VERSIONS = 8


@dataclass(frozen=True)
class Version:
    """A named, ordered version of the database."""

    number: int
    tag: str
    log_length: int

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class _Event:
    operation: str  # "insert" | "delete"
    relation: str
    values: tuple[Any, ...]


class VersionedDatabase:
    """A database with an append-only change log and named versions.

    Mutations apply to the *working state*; :meth:`commit` freezes them
    into a new version.  ``as_of`` reconstructs any committed version.
    """

    def __init__(self, schema: Schema, initial_tag: str = "v0") -> None:
        self.schema = schema
        self._log: list[_Event] = []
        self._versions: list[Version] = [Version(0, initial_tag, 0)]
        self._working = Database(schema)
        # Committed versions never change, so entries carry no version
        # tags.
        self._cache: VersionedLRU[int, Database] = VersionedLRU(
            MAX_HELD_VERSIONS, "snapshot cache"
        )

    # -- mutation --------------------------------------------------------------

    def insert(self, relation: str, *values: Any) -> None:
        """Insert into the working state (logged)."""
        self._working.insert(relation, *values)
        self._log.append(_Event("insert", relation, tuple(values)))

    def delete(self, relation: str, *values: Any) -> None:
        """Delete from the working state (logged); missing rows error."""
        if not self._working.delete(relation, *values):
            raise VersionError(
                f"cannot delete absent tuple {values!r} from {relation!r}"
            )
        self._log.append(_Event("delete", relation, tuple(values)))

    def commit(self, tag: str | None = None) -> Version:
        """Freeze the working state as a new version."""
        number = len(self._versions)
        version = Version(number, tag or f"v{number}", len(self._log))
        self._versions.append(version)
        return version

    # -- access ---------------------------------------------------------------

    @property
    def versions(self) -> tuple[Version, ...]:
        return tuple(self._versions)

    @property
    def latest(self) -> Version:
        return self._versions[-1]

    def resolve(self, version: Version | str | int | None) -> Version:
        """Resolve a version reference (tag, number, or None = latest)."""
        if version is None:
            return self.latest
        if isinstance(version, Version):
            return version
        for candidate in self._versions:
            if candidate.tag == version or candidate.number == version:
                return candidate
        raise VersionError(f"unknown version: {version!r}")

    def current(self) -> Database:
        """The live working state (mutations visible immediately)."""
        return self._working

    def as_of(self, version: Version | str | int | None = None) -> Database:
        """Reconstruct the database as of a committed version."""
        resolved = self.resolve(version)
        cached = self._cache.get(resolved.number)
        if cached is not None:
            return cached
        db = Database(self.schema)
        for event in self._log[: resolved.log_length]:
            if event.operation == "insert":
                db.relation(event.relation).insert(
                    event.values, enforce_key=False
                )
            else:
                db.delete(event.relation, *event.values)
        self._cache.put(resolved.number, db)
        return db


class VersionedCitationEngine:
    """Citations over a :class:`VersionedDatabase`, stamped with versions.

    Per Section 4, every citation record gains a ``Version`` field so the
    cited data can be brought back exactly as it was seen.
    """

    def __init__(
        self,
        versioned: VersionedDatabase,
        registry: ViewRegistry,
        policy: CitationPolicy | None = None,
    ) -> None:
        self.versioned = versioned
        self.registry = registry
        self.policy = policy
        # One warm engine per recently cited version, bounded like the
        # snapshots: an evicted version is rebuilt on its next use.
        self._engines: VersionedLRU[int, CitationEngine] = VersionedLRU(
            MAX_HELD_VERSIONS, "engine cache"
        )

    def _engine_for(self, version: Version) -> CitationEngine:
        engine = self._engines.get(version.number)
        if engine is None:
            db = self.versioned.as_of(version)
            engine = CitationEngine(db, self.registry, policy=self.policy)
            self._engines.put(version.number, engine)
        return engine

    # -- planned evaluation ---------------------------------------------------

    def plan(
        self,
        query: ConjunctiveQuery | str,
        version: Version | str | int | None = None,
    ) -> QueryPlan:
        """The cached cost-based plan for ``query`` as of a version.

        Each recently used committed version (up to
        :data:`MAX_HELD_VERSIONS`) keeps its own warm
        :class:`~repro.citation.generator.CitationEngine` (and hence its
        own :class:`~repro.cq.plan.QueryPlanner` over the reconstructed
        state), so plans are naturally keyed by ``(query, version)`` and
        costed against that version's statistics.
        """
        if isinstance(query, str):
            query = parse_query(query)
        resolved = self.versioned.resolve(version)
        return self._engine_for(resolved).planner.plan(query)

    def evaluate(
        self,
        query: ConjunctiveQuery | str,
        version: Version | str | int | None = None,
    ) -> list[tuple[Any, ...]]:
        """Evaluate a query against a committed version, planned.

        Results match evaluating against ``versioned.as_of(version)``
        directly; repeated evaluation of the same query at the same
        version hits the per-version plan cache.
        """
        if isinstance(query, str):
            query = parse_query(query)
        resolved = self.versioned.resolve(version)
        engine = self._engine_for(resolved)
        return evaluate_query(query, engine.db, planner=engine.planner)

    def explain(
        self,
        query: ConjunctiveQuery | str,
        version: Version | str | int | None = None,
    ) -> str:
        """EXPLAIN for the version-pinned plan."""
        resolved = self.versioned.resolve(version)
        return (
            f"as of version {resolved.tag!r}: "
            + self.plan(query, resolved).explain()
        )

    def cite(
        self,
        query: ConjunctiveQuery | str,
        version: Version | str | int | None = None,
    ) -> CitationResult:
        """Cite a query against a committed version (default: latest)."""
        resolved = self.versioned.resolve(version)
        result = self._engine_for(resolved).cite(query)
        stamp = {"Version": resolved.tag}
        result.records = [
            self._stamped(record, stamp) for record in result.records
        ]
        result.database_citation = [
            self._stamped(record, stamp)
            for record in result.database_citation
        ]
        for tuple_citation in result.tuples.values():
            tuple_citation.records = [
                self._stamped(record, stamp)
                for record in tuple_citation.records
            ]
        return result

    @staticmethod
    def _stamped(record: Record, stamp: Record) -> Record:
        merged = dict(record)
        merged.update(stamp)
        return merged
