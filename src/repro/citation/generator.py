"""End-to-end citation generation: ``cite(D, Q, V)`` (Defs 3.1–3.4).

The :class:`CitationEngine` pipeline:

1. enumerate the rewritings of the query over the registry (Section 2.2);
2. skip the rewritings Section 3.4 absorbs for every output tuple,
   before any is planned: when the policy's order ranks rewritings
   (:meth:`~repro.citation.order.MonomialOrder.rewriting_rank`) and the
   rewritings are validated, only those of the best rank go on
   (:meth:`CitationEngine._pruned`);
3. evaluate each remaining rewriting (views materialized into the
   engine's view store) and build, per output tuple, the
   ``·``-monomial of view citation tokens and ``C_R`` tokens of each
   binding (Def 3.1), summed over its bindings into a per-rewriting
   polynomial (Def 3.2).  A monomial is a function of the binding's
   λ-valuation, so each distinct valuation builds one monomial and each
   distinct term list one polynomial, which the other bindings and
   tuples reuse by identity; a skipped rewriting's polynomials are
   computed when :attr:`TupleCitation.per_rewriting` is first read;
4. combine the per-rewriting polynomials with ``+R`` (Def 3.3) — union
   (the formal, plan-independent semantics) or order-based absorption
   ("best", Section 3.4) according to the policy — once per distinct
   vector of per-rewriting polynomials; an order that decides by shape
   is asked once per tuple shape, and its decision is replayed on later
   tuples of that shape (:attr:`CitationEngine.absorption_memo`);
5. aggregate per-tuple citations with ``Agg`` (Def 3.4), injecting the
   neutral-element database citation;
6. render the symbolic citation into records via the views' citation
   functions ``F_V`` and the policy's record-level interpretations of
   ``·``/``+``/``Agg`` — once per distinct value of one call, not once
   per output tuple: each distinct token's record, each distinct
   monomial's ``·``, each distinct tuple polynomial's ``+`` and each
   distinct record's dedup key are computed once (:class:`_Rendering`).

Every such memo lives for one query of one
:meth:`CitationEngine.cite_batch` call, so it holds nothing between
calls.

A union of conjunctive queries (SPJU's U, Section 3.1) runs steps 1–4
per disjunct and combines a tuple's citations with ``+`` across the
disjuncts that derive it, the alternative-use ``+`` of bindings; a
conjunctive query is a union of one rule.  Every query, conjunctive or
union, object or Datalog text, is cited through
:meth:`CitationEngine.cite_batch`.

Writes need no call into the engine: it subscribes to its database and
applies each row change as a delta to the materialized views and the
cached records (:meth:`CitationEngine.rows_changed`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, NamedTuple

from repro.analysis import sanitizer as _sanitizer
from repro.citation.cache import CachedRewritingEngine
from repro.citation.combiners import with_neutral
from repro.citation.order import (
    MonomialOrder,
    Shape,
    absorbing_sum,
    best_polynomials,
    normal_form,
    token_shape,
)
from repro.citation.policy import CitationPolicy, focused_policy
from repro.citation.polynomial import (
    CitationMonomial,
    CitationPolynomial,
    idempotent_sum,
)
from repro.citation.tokens import (
    BaseRelationToken,
    CitationToken,
    ViewCitationToken,
)
from repro.cq.canonical import canonical_key
from repro.cq.evaluation import evaluate_with_bindings
from repro.cq.plan import QueryPlan, QueryPlanner, plan_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.sql_parser import parse_sql
from repro.cq.subplan import SubplanMemo, reserve_shared_prefixes
from repro.cq.terms import Constant, Variable
from repro.cq.ucq import UnionQuery, parse_datalog
from repro.errors import StaleResultError
from repro.relational.database import (
    BULK,
    DELETED,
    DELETING,
    INSERTED,
    Database,
    view_store,
)
from repro.relational.tuples import Row
from repro.rewriting.engine import RewritingEngine
from repro.rewriting.rewriting import Rewriting
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial
from repro.util.jsonutil import canonical_json, copy_json
from repro.util.lru import VersionedLRU
from repro.views.registry import ViewRegistry

Record = dict[str, Any]
#: Row changes with no read in between that an engine maintains row by
#: row.  Each costs a few pinned delta queries, so a longer run of
#: writes costs less as one full invalidation, rebuilt once by the next
#: read (see :meth:`CitationEngine.rows_changed`).
MAX_MAINTAINED_ROWS = 64
#: The zero polynomial: a rewriting that does not derive a tuple
#: contributes it.  Polynomials are immutable, so one instance serves.
_ZERO = ProvenancePolynomial.zero()
#: Per output tuple, in first-output order: the per-rewriting
#: polynomials (aligned with the rewritings, None where the rewriting
#: was skipped) and their ``+R`` combination (Defs 3.2–3.3).
TuplePolynomials = dict[
    tuple[Any, ...],
    tuple[tuple[CitationPolynomial | None, ...], CitationPolynomial],
]
#: Value types whose equal values, type for type, share one ``repr``.
_PLAIN_TYPES = frozenset({str, int, bool, type(None)})


def _valuation_reader(
    rewriting: Rewriting,
) -> Callable[[dict[Variable, Any]], tuple[Any, ...]]:
    """A binding's λ-valuation under ``rewriting`` as a dict key: the
    values of its view applications' parameter variables, in
    application order (Def 3.1; the constants are the rewriting's own).

    The key keeps apart values that compare equal but render
    differently in a token: ``1``, ``1.0`` and ``True`` by their types,
    ``0.0`` and ``-0.0`` (and any value of another type) by their
    ``repr``.  A NaN equals no other NaN object, so it only misses.
    """
    variables = [
        term
        for application in rewriting.applications
        for term in application.parameter_terms
        if isinstance(term, Variable)
    ]
    if not variables:
        return lambda binding: ()
    read = itemgetter(*variables)
    single = len(variables) == 1

    def valuation(binding: dict[Variable, Any]) -> tuple[Any, ...]:
        values = (read(binding),) if single else read(binding)
        types = tuple(map(type, values))
        if _PLAIN_TYPES.issuperset(types):
            return values, types
        return values, types, tuple(map(repr, values))

    return valuation


class PrunedRewriting(NamedTuple):
    """Why a citation skipped a rewriting: at the order's ranked level
    ``level``, each of its monomials counts ``count`` against the kept
    rewritings' ``kept_count``, so Section 3.4 absorbs it for every
    output tuple."""

    level: str
    count: int
    kept_count: int

    def __str__(self) -> str:
        return f"{self.level}: {self.count} against {self.kept_count}"


class _Disjunct(NamedTuple):
    """One disjunct of a batch, rewritten and planned by
    :meth:`CitationEngine._group_batch`."""

    #: Every Def 2.2 rewriting, in enumeration order.
    rewritings: tuple[Rewriting, ...]
    #: The positions Defs 3.1–3.2 run for, ascending.
    kept: tuple[int, ...]
    #: The plans of the kept rewritings, aligned with ``kept``; None
    #: plans through the planner when evaluated.
    plans: tuple[QueryPlan | None, ...]
    #: The skipped positions, each with why it was skipped.
    pruned: dict[int, PrunedRewriting]


class _SkippedRewritings:
    """Def 3.2 for the rewritings one citation skipped, on first read.

    Every tuple of the citation shares one instance, so the skipped
    rewritings are evaluated once, when the first tuple's
    :attr:`TupleCitation.per_rewriting` is read, and only while the
    database is at the version the citation was made at.
    """

    def __init__(
        self, engine: CitationEngine, rewritings: dict[int, Rewriting]
    ) -> None:
        self._engine = engine
        self._rewritings = rewritings
        self._version = engine.db.stats_version
        self._polynomials: dict[
            int, dict[tuple[Any, ...], CitationPolynomial]
        ] | None = None

    def polynomial(
        self, position: int, output: tuple[Any, ...]
    ) -> CitationPolynomial:
        if self._polynomials is None:
            live = self._engine.db.stats_version
            if live != self._version:
                raise StaleResultError(
                    f"per_rewriting read at stats_version {live}, but the "
                    f"citation was made at {self._version}: the rewritings "
                    "it skipped can no longer be evaluated on its data"
                )
            self._polynomials = {
                index: self._engine._rewriting_polynomials(rewriting)
                for index, rewriting in self._rewritings.items()
            }
        return self._polynomials[position].get(output, _ZERO)


@dataclass
class TupleCitation:
    """The citation of one output tuple.

    Attributes
    ----------
    output:
        The output tuple's values.
    per_rewriting:
        One citation polynomial per rewriting (aligned with
        :attr:`CitationResult.rewritings`); the paper's
        ``cite(t, Q, Q', V)``.  The citation evaluates only the
        rewritings it keeps; the polynomials of those it skipped
        (:attr:`CitationResult.pruned`) are computed on first read, as
        of the data the citation was made from.  A first read after the
        database changed raises :class:`~repro.errors.StaleResultError`.
    polynomial:
        The combined citation after ``+R`` — ``cite(t, Q, V)``.
    records:
        The rendered citation records under the policy's interpretations.
        They share no dict or list with the engine's caches, so changing
        them cannot change a later citation; tuples of one result may
        share record objects with each other and with the result's
        records.
    """

    output: tuple[Any, ...]
    #: :attr:`per_rewriting`, with None at each skipped position until
    #: the first read.
    _per_rewriting: tuple[CitationPolynomial | None, ...] = field(
        repr=False, compare=False
    )
    polynomial: CitationPolynomial
    records: list[Record]
    _skipped: _SkippedRewritings | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def per_rewriting(self) -> tuple[CitationPolynomial, ...]:
        skipped = self._skipped
        if skipped is not None:
            self._per_rewriting = tuple(
                skipped.polynomial(position, self.output)
                if polynomial is None else polynomial
                for position, polynomial in enumerate(self._per_rewriting)
            )
            self._skipped = None
        return self._per_rewriting  # type: ignore[return-value]


@dataclass
class CitationResult:
    """The citation of a whole query result — ``cite(D, Q, V)``.

    ``query`` is the query as submitted (Datalog text parsed): a
    conjunctive query, or a whole union (every rule, including those
    minimization removed before citing).

    ``rewritings`` lists every rewriting of every cited disjunct, and
    ``pruned`` maps the positions among them that Section 3.4 absorbs
    for every output tuple, which the citation never evaluated
    (:meth:`CitationEngine._pruned`), to the ranked level that decided
    each.  Their :attr:`TupleCitation.per_rewriting` entries are
    computed on first read, and raise
    :class:`~repro.errors.StaleResultError` once the database has
    changed.

    ``records`` and ``database_citation`` (like each tuple's records)
    are the caller's: they share no dict or list with the engine's
    caches or its :attr:`CitationEngine.database_citation`.  Within one
    result, record objects may be shared — the neutral-element records
    in ``records`` are the ones in ``database_citation``.
    """

    query: ConjunctiveQuery | UnionQuery
    policy: CitationPolicy
    rewritings: tuple[Rewriting, ...]
    tuples: dict[tuple[Any, ...], TupleCitation]
    aggregate_polynomial: CitationPolynomial
    records: list[Record]
    database_citation: list[Record]
    pruned: dict[int, PrunedRewriting] = field(default_factory=dict)

    @property
    def output_tuples(self) -> list[tuple[Any, ...]]:
        return list(self.tuples)

    def citation(self) -> Record:
        """A single JSON-ready citation object for the result set."""
        return {
            "query": repr(self.query),
            "policy": self.policy.name,
            "database": self.database_citation,
            "citations": self.records,
        }

    def __repr__(self) -> str:
        return (
            f"CitationResult({len(self.tuples)} tuples, "
            f"{len(self.rewritings)} rewritings, policy={self.policy.name})"
        )


def _default_database_citation(db: Database) -> list[Record]:
    """Derive the Agg neutral element from a ``MetaData`` relation.

    The paper's Def 3.4 suggests the neutral element carry citations
    "needed regardless of the query output", e.g. the database name; the
    GtoPdb schema stores those in ``MetaData``.
    """
    if "MetaData" not in db.schema:
        return []
    record: Record = {}
    for row in db.relation("MetaData"):
        record[str(row[0])] = row[1]
    return [record] if record else []


class _Rendering:
    """The records of one citation call, each rendered once.

    Each query of a :meth:`CitationEngine.cite_batch` call renders its
    whole result through one instance, which memoizes for that query
    only: each distinct token's record (its view's ``F_V``) enters once,
    each distinct monomial is combined with the policy's ``·`` once —
    per ``(monomial, coefficient)`` pair under ``plus="counted"`` —,
    each tuple polynomial *object* with ``+`` once (the engine shares
    one object among the tuples with equal per-rewriting polynomials,
    and each tuple still gets a list of its own), and each distinct
    record's dedup key is computed once.  ``+``, ``Agg`` and the
    neutral element then deduplicate on those keys.

    Keys stay content-based (canonical JSON): two different monomials
    can render equal records, so token identity alone would keep
    duplicates.  They are memoized per record *object*; :meth:`key`
    keeps each record it has seen alive, so no ``id`` is reused while
    the call runs.

    Token records come from the engine's record cache and the neutral
    element from :attr:`CitationEngine.database_citation`; each enters
    as a :func:`~repro.util.jsonutil.copy_json` copy, once per call, so
    no record handed to the caller shares a dict or list with either.
    """

    def __init__(self, engine: CitationEngine) -> None:
        self._engine = engine
        self._policy = engine.policy
        self._tokens: dict[CitationToken, Record] = {}
        self._monomials: dict[tuple[CitationMonomial, int], list[Record]] = {}
        self._polynomials: dict[
            int, tuple[CitationPolynomial, list[Record]]
        ] = {}
        self._keys: dict[int, tuple[Record, str]] = {}

    def key(self, record: Record) -> str:
        """The record's canonical JSON, computed once per record."""
        entry = self._keys.get(id(record))
        if entry is None:
            entry = self._keys[id(record)] = (record, canonical_json(record))
        return entry[1]

    def _token(self, token: CitationToken) -> Record:
        record = self._tokens.get(token)
        if record is None:
            record = self._tokens[token] = copy_json(
                self._engine._token_record(token)
            )
        return record

    def _monomial(
        self, monomial: CitationMonomial, coefficient: int
    ) -> list[Record]:
        """``·`` over the monomial's token records; under
        ``plus="counted"`` a coefficient above one is stamped on each
        record as ``DerivationCount``."""
        count = coefficient if self._policy.plus == "counted" else 1
        records = self._monomials.get((monomial, count))
        if records is None:
            if count > 1:
                records = [
                    {**record, "DerivationCount": count}
                    for record in self._monomial(monomial, 1)
                ]
            else:
                records = self._policy.dot_combiner(
                    [self._token(token) for token in monomial.tokens()],
                    key=self.key,
                )
            self._monomials[monomial, count] = records
        return records

    def polynomial(self, polynomial: CitationPolynomial) -> list[Record]:
        """``+`` over the polynomial's monomial records: one output
        tuple's records, in a list of its own.  ``+`` runs once per
        polynomial object."""
        entry = self._polynomials.get(id(polynomial))
        if entry is None:
            entry = self._polynomials[id(polynomial)] = (
                polynomial,
                self._policy.plus_combiner(
                    [
                        self._monomial(monomial, coefficient)
                        for monomial, coefficient in polynomial.terms.items()
                    ],
                    key=self.key,
                ),
            )
        return list(entry[1])

    def aggregate(
        self, per_tuple: list[list[Record]]
    ) -> tuple[list[Record], list[Record]]:
        """``Agg`` over the per-tuple records with the neutral element
        (Def 3.4): the result's records and its database citation."""
        neutral = [
            copy_json(record) for record in self._engine.database_citation
        ]
        records = self._policy.agg_combiner(per_tuple, key=self.key)
        if self._policy.include_database_citation:
            records = with_neutral(records, neutral, key=self.key)
        return records, neutral


class CitationEngine:
    """Generates citations for SPJU queries over a database.

    Parameters
    ----------
    db:
        The database instance.
    registry:
        The citation views declared by the database owner.
    policy:
        Interpretation of the combining functions; defaults to
        :func:`~repro.citation.policy.focused_policy` over the registry.
    database_citation:
        The Agg neutral element records; defaults to a record built from
        the ``MetaData`` relation when present.
    include_partial / validate / max_rewritings:
        Passed to the :class:`~repro.rewriting.engine.RewritingEngine`,
        which every query reaches through a
        :class:`~repro.citation.cache.CachedRewritingEngine` (Def 2.2
        enumeration memoized per query template: a new constant gets
        its template's rewritings with the constant swapped in).

    Plan verification and the concurrency sanitizer are process-wide
    switches (:func:`~repro.cq.plan.set_plan_verification` /
    ``REPRO_VERIFY_PLANS`` and
    :func:`~repro.analysis.sanitizer.set_sanitize` /
    ``REPRO_SANITIZE``), not engine parameters.

    The engine owns one view store
    (:func:`~repro.relational.database.view_store`,
    :meth:`materialized_views`): each view's extension is a
    :class:`~repro.relational.database.RelationInstance`, probed and
    cache-tagged like a base relation, so its indexes and statistics
    serve every rewriting of every query and follow each row change.
    Within the engine's life a view's version names one extension:
    re-materializing a view moves its version past every version it had.

    Within one citation, each distinct value is built once and shared
    by identity: one monomial per distinct λ-valuation of a rewriting
    (Def 3.1), one polynomial per distinct term list (Def 3.2), one
    ``+R`` and normal form per distinct vector of per-rewriting
    polynomials (Def 3.3) and one ``+`` rendering per distinct tuple
    polynomial.  These memos die with the citation and never enter the
    engine's caches.
    """

    def __init__(
        self,
        db: Database,
        registry: ViewRegistry,
        policy: CitationPolicy | None = None,
        database_citation: list[Record] | None = None,
        include_partial: bool = True,
        validate: bool = True,
        max_rewritings: int | None = None,
    ) -> None:
        self.db = db
        self.registry = registry
        self.policy = policy or focused_policy(registry)
        self.rewriting_engine = CachedRewritingEngine(RewritingEngine(
            registry,
            include_partial=include_partial,
            validate=validate,
            max_rewritings=max_rewritings,
        ))
        #: Whether :attr:`database_citation` follows ``MetaData``: only
        #: when no ``database_citation=`` was given.
        self._derives_database_citation = database_citation is None
        if database_citation is None:
            database_citation = _default_database_citation(db)
        self.database_citation = database_citation
        #: Shared plan cache: every rewriting of every query evaluated by
        #: this engine reuses plans across α-equivalent structures.
        self.planner = QueryPlanner(db)
        #: Cross-query sub-plan memo: batches evaluate each shared join
        #: prefix once (:mod:`repro.cq.subplan`).
        self.subplan_memo = SubplanMemo()
        #: The materialized views, one relation per view, arity from its
        #: head (:meth:`materialized_views`).  Nothing subscribes to it.
        self._views = view_store({
            view.name: len(view.view.head) for view in registry
        })
        #: Whether :attr:`_views` holds the current extensions, with the
        #: deferred :attr:`_joins_touched` applied by the next read.
        self._loaded = False
        #: Plan shape of each materialized non-scan view's extension
        #: (see :meth:`_apply_view_changes`).
        self._view_shapes: dict[str, tuple] = {}
        #: For each non-scan view a write reached since the last read,
        #: whether its delta was non-empty.
        self._joins_touched: dict[str, bool] = {}
        #: Row changes since the last read (see :data:`MAX_MAINTAINED_ROWS`).
        self._unread_rows = 0
        #: Rendered citation records per token, tagged with the engine
        #: epoch: row changes drop exactly the records they make stale
        #: (:meth:`rows_changed`), and :meth:`invalidate_data` moves
        #: the epoch past every entry.
        self.record_cache: VersionedLRU[CitationToken, Record] = (
            VersionedLRU(4096, "record cache")
        )
        self._epoch = 0
        #: Views with a record cached at the current epoch (evictions
        #: leave a name in place): only their ``C_V`` needs a delta.
        self._cached_views: set[str] = set()
        #: Section 3.4 decisions per tuple shape (:meth:`_best`,
        #: :meth:`_normal_form`): the positions ``+R`` or the normal
        #: form keeps, keyed by the step and the input's
        #: :func:`~repro.citation.order.token_shape`.  Untagged: the
        #: decisions read no data, and the registry never changes a
        #: view it holds.
        self.absorption_memo: VersionedLRU[
            tuple[str, Shape], tuple[int, ...]
        ] = VersionedLRU(1024, "absorption memo")
        #: The disjunct positions :meth:`UnionQuery.minimal_positions
        #: <repro.cq.ucq.UnionQuery.minimal_positions>` keeps, keyed by
        #: the disjuncts' canonical keys: containment reads neither
        #: variable names nor data.
        self.minimization_memo: VersionedLRU[
            tuple[str, ...], tuple[int, ...]
        ] = VersionedLRU(1024, "minimization memo")
        db.subscribe(self)

    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Re-materialize the views and drop every data-derived cache."""
        self.invalidate_data()
        self.record_cache.clear()
        self.planner.clear()
        self.subplan_memo.clear()

    def invalidate_data(self) -> None:
        """Full invalidation of the data-derived state.

        Marks the materialized views for re-materialization by the next
        read, drops every rendered record through the engine epoch, and
        re-derives the ``MetaData`` neutral element.  Plans and the
        sub-plan memo stay: their tags (the versions of the base
        relations and views they read) already refuse stale entries,
        and a re-materialized view moves its version past them.

        Writes through the database no longer need this call: the
        engine subscribes to its database and maintains its views and
        records per row change (:meth:`rows_changed`).  It remains for
        callers that want a re-materializing engine, such as the
        benchmark's reply oracle.
        """
        self._loaded = False
        self._view_shapes.clear()
        self._joins_touched.clear()
        self._epoch += 1
        self._cached_views.clear()
        if self._derives_database_citation:
            self.database_citation = _default_database_citation(self.db)

    def rows_changed(
        self, relation: str, values: tuple[Any, ...] | None, phase: str
    ) -> None:
        """Maintain views and records across one row change.

        The database calls this synchronously
        (:meth:`~repro.relational.database.Database.subscribe`): after
        an insert lands, and before and after a delete removes its row.
        Both delta computations run on a state that contains the row —
        after the insert, before the delete:

        - each view whose ``C_V`` reads ``relation`` drops the records
          of the λ-valuations its pinned ``C_V`` yields;
        - each view whose body reads ``relation`` gets its delta from
          :meth:`ViewRegistry.materialize` with the row pinned.  A scan
          view inserts or deletes its delta tuple in its instance at
          once; other views are re-materialized once, by the next read
          (:meth:`_apply_view_changes`), however many rows changed.

        Work is only done for state that exists: no view delta without
        a materialization, no record delta for a view with no cached
        record.  A bulk load (``BULK``) is a full
        :meth:`invalidate_data`, and so is the row change that takes a
        run of writes with no read in between past
        :data:`MAX_MAINTAINED_ROWS`; later rows of the run then find
        nothing to maintain.
        """
        if phase == BULK:
            self.invalidate_data()
            return
        assert values is not None
        if phase != DELETED:
            self._unread_rows += 1
            if self._unread_rows > MAX_MAINTAINED_ROWS and (
                self._loaded or self._cached_views
            ):
                self.invalidate_data()
            self._drop_stale_records(relation, values)
            self._queue_view_deltas(relation, values, phase == INSERTED)
        if (
            relation == "MetaData"
            and phase != DELETING
            and self._derives_database_citation
        ):
            self.database_citation = _default_database_citation(self.db)

    def _drop_stale_records(
        self, relation: str, values: tuple[Any, ...]
    ) -> None:
        if not self._cached_views:
            return
        for view in self.registry:
            if (
                view.name in self._cached_views
                and relation in view.citation_query.relation_names()
            ):
                for params in view.stale_parameters(
                    self.db, relation, values
                ):
                    self.record_cache.discard(
                        ViewCitationToken(view.name, params)
                    )

    def _queue_view_deltas(
        self, relation: str, values: tuple[Any, ...], inserted: bool
    ) -> None:
        if not self._loaded:
            return
        # A non-scan view with a non-empty delta is re-materialized by
        # the next read whatever else changes, so it needs no more.
        names = [
            view.name for view in self.registry
            if relation in view.view.relation_names()
            and not self._joins_touched.get(view.name)
        ]
        if not names:
            return
        deltas = self.registry.materialize(
            self.db, names, pinned=(relation, values)
        )
        for name, delta in deltas.items():
            if not self.registry.get(name).is_scan:
                self._joins_touched[name] = bool(delta)
                continue
            # A scan view lists one tuple per row in insertion order:
            # the insert appends its tuple, the delete removes it.
            instance = self._views.relation(name)
            for view_tuple in delta:
                if inserted:
                    instance.insert(view_tuple)
                else:
                    instance.delete(Row(name, view_tuple))

    def _apply_view_changes(self) -> None:
        """Re-materialize the non-scan views the writes since the last
        read changed.

        A non-scan view a write reached is re-materialized alone when
        one of its deltas was non-empty, or when the writes moved its
        extension's plan shape (a new join order reorders its tuples).
        """
        touched, self._joins_touched = self._joins_touched, {}
        for name, grew in touched.items():
            view = self.registry.get(name)
            shape = plan_query(view.extension, self.db).shape
            if not grew and shape == self._view_shapes.get(name):
                continue
            self._view_shapes[name] = shape
            self._rematerialize([name])

    def _rematerialize(self, names: Sequence[str]) -> None:
        """Reload the named views from a fresh materialization, on the
        bulk path; clearing first moves each version past every version
        the view had."""
        extensions = self.registry.materialize(
            self.db, names, planner=self.planner
        )
        for name, rows in extensions.items():
            instance = self._views.relation(name)
            instance.clear()
            instance.insert_many(rows)

    def materialized_views(self) -> Database:
        """The view store, holding the current extension of every view.

        Public accessor for callers that plan against the same views
        this engine evaluates with (the service's ``/plan`` endpoint
        shares plan-cache entries with ``/cite`` through it).
        """
        return self._materialized()

    def _materialized(self) -> Database:
        self._unread_rows = 0
        if not self._loaded:
            self._rematerialize(self.registry.names)
            self._view_shapes = {
                view.name: plan_query(view.extension, self.db).shape
                for view in self.registry
                if not view.is_scan
            }
            self._loaded = True
        elif self._joins_touched:
            self._apply_view_changes()
        return self._views

    # ------------------------------------------------------------------
    # the symbolic pipeline
    # ------------------------------------------------------------------

    def _binding_monomial(
        self, rewriting: Rewriting, binding: dict
    ) -> CitationMonomial:
        """Def 3.1: the ``·`` of citation tokens for one binding."""
        tokens: list[CitationToken] = []
        for application in rewriting.applications:
            values = []
            for term in application.parameter_terms:
                if isinstance(term, Constant):
                    values.append(term.value)
                elif isinstance(term, Variable):
                    values.append(binding[term])
                else:  # pragma: no cover - parameter terms are const/var
                    values.append(term)
            tokens.append(
                ViewCitationToken(application.view.name, tuple(values))
            )
        for atom in rewriting.uncovered_atoms:
            tokens.append(BaseRelationToken(atom.relation))
        return ProvenanceMonomial(tokens)

    def _bindings(
        self, rewriting: Rewriting, plan: QueryPlan | None
    ) -> dict[tuple[Any, ...], list[dict]]:
        """The rewriting's bindings grouped by output tuple, in
        first-derivation order (``plan`` None: through the planner)."""
        memo = self.subplan_memo
        virtual = self._materialized()
        if plan is None:
            plan = self.planner.plan(rewriting.query, virtual)
        return evaluate_with_bindings(
            rewriting.query,
            self.db,
            virtual=virtual,
            plan=plan,
            # A memo that neither holds nor wants anything is skipped:
            # the executor then computes no prefix keys at all.
            memo=memo if memo.worth_checking else None,
        )

    def _rewriting_polynomials(
        self, rewriting: Rewriting, plan: QueryPlan | None = None
    ) -> dict[tuple[Any, ...], CitationPolynomial]:
        """Def 3.2: per-tuple polynomials for one rewriting.

        A binding's monomial is a function of its λ-valuation (Def 3.1),
        so each distinct valuation builds one monomial, which every
        later binding with that valuation reuses.  A tuple's term list
        is then its monomials by identity, with their binding counts, in
        first-derivation order, and tuples with equal term lists share
        one polynomial.
        """
        grouped = self._bindings(rewriting, plan)
        valuation = _valuation_reader(rewriting)
        monomials: dict[Any, CitationMonomial] = {}
        #: Every monomial built, by id: it stays alive here, so no id
        #: is reused while the loop runs.
        interned: dict[int, CitationMonomial] = {}
        polynomials: dict[tuple[tuple[int, int], ...], CitationPolynomial] = {}
        result: dict[tuple[Any, ...], CitationPolynomial] = {}
        for output, bindings in grouped.items():
            counts: dict[int, int] = {}
            for binding in bindings:
                key = valuation(binding)
                monomial = monomials.get(key)
                if monomial is None:
                    monomial = monomials[key] = self._binding_monomial(
                        rewriting, binding
                    )
                    interned[id(monomial)] = monomial
                identity = id(monomial)
                counts[identity] = counts.get(identity, 0) + 1
            term_list = tuple(counts.items())
            polynomial = polynomials.get(term_list)
            if polynomial is None:
                terms: dict[CitationMonomial, int] = {}
                for identity, count in term_list:
                    monomial = interned[identity]
                    terms[monomial] = terms.get(monomial, 0) + count
                polynomial = polynomials[term_list] = ProvenancePolynomial(
                    terms
                )
            result[output] = polynomial
        return result

    def _combine_rewritings(
        self, polynomials: list[CitationPolynomial]
    ) -> CitationPolynomial:
        """Def 3.3 / Section 3.4: the ``+R`` combination for one tuple."""
        policy = self.policy
        nonzero = [p for p in polynomials if not p.is_zero]
        if not nonzero:
            return _ZERO
        order = policy.order
        if order is None:
            return self._plus(nonzero)
        if policy.plus_r == "best":
            nonzero = self._best(nonzero, order)
        return self._normal_form(self._plus(nonzero), order)

    @staticmethod
    def _shape_key(
        step: str, polynomials: Sequence[CitationPolynomial],
        order: MonomialOrder,
    ) -> tuple[str, Shape] | None:
        """The :attr:`absorption_memo` key of one absorption step, or
        None when ``order`` does not decide by shape or the input is too
        large to have one."""
        if not order.decides_by_shape:
            return None
        shape = token_shape(polynomials)
        return None if shape is None else (step, shape)

    def _best(
        self, polynomials: list[CitationPolynomial], order: MonomialOrder
    ) -> list[CitationPolynomial]:
        """:func:`best_polynomials`, replayed from the positions kept
        for the first input of the same shape."""
        key = self._shape_key("+R", polynomials, order)
        positions = None if key is None else self.absorption_memo.get(key)
        if positions is None:
            kept = best_polynomials(polynomials, order)
            if key is not None:
                first: dict[CitationPolynomial, int] = {}
                for index, polynomial in enumerate(polynomials):
                    first.setdefault(polynomial, index)
                self.absorption_memo.put(
                    key, tuple(first[polynomial] for polynomial in kept)
                )
            return kept
        kept = [polynomials[index] for index in positions]
        if _sanitizer._active:
            _sanitizer.check_absorption_serve(
                self.absorption_memo.label, kept,
                best_polynomials(polynomials, order),
            )
        return kept

    def _normal_form(
        self, polynomial: CitationPolynomial, order: MonomialOrder
    ) -> CitationPolynomial:
        """:func:`normal_form`, replayed from the positions kept for the
        first polynomial of the same shape."""
        key = self._shape_key("normal form", [polynomial], order)
        positions = None if key is None else self.absorption_memo.get(key)
        if positions is None:
            form = normal_form(polynomial, order)
            if key is not None:
                kept = form.terms
                self.absorption_memo.put(key, tuple(
                    index
                    for index, monomial in enumerate(polynomial.monomials())
                    if monomial in kept
                ))
            return form
        terms = list(polynomial.terms.items())
        form = polynomial if len(positions) == len(terms) else (
            ProvenancePolynomial(dict(terms[index] for index in positions))
        )
        if _sanitizer._active:
            _sanitizer.check_absorption_serve(
                self.absorption_memo.label, form,
                normal_form(polynomial, order),
            )
        return form

    def _plus(
        self, polynomials: Sequence[CitationPolynomial]
    ) -> CitationPolynomial:
        """The policy's ``+``: set union when idempotent, else counting."""
        if self.policy.idempotent_plus:
            return idempotent_sum(polynomials)
        combined = _ZERO
        for polynomial in polynomials:
            combined = combined.add(polynomial)
        return combined

    def _tuple_polynomials(self, disjunct: _Disjunct) -> TuplePolynomials:
        """Defs 3.1–3.3 for every output tuple of one conjunctive query.

        Only the kept rewritings are evaluated, with the plans
        :meth:`_group_batch` made while reserving shared prefixes, so
        nothing is planned (or counted) twice.  The tuples come in
        rewriting 0's first-derivation order, then each later
        rewriting's new ones.  When rewriting 0 was skipped, its
        equivalent kept rewritings derive the same tuples (Def 2.2), so
        its plan is evaluated for their order alone, and only when there
        are two or more.

        Tuples whose per-rewriting polynomials are the same objects
        share one entry, so ``+R`` and the normal form run once per
        distinct vector.
        """
        rewritings, kept, plans, __ = disjunct
        evaluated = [
            self._rewriting_polynomials(rewritings[position], plan)
            for position, plan in zip(kept, plans)
        ]
        sources: list[dict[tuple[Any, ...], Any]] = evaluated
        if kept and kept[0] and len(evaluated[0]) > 1:
            sources = [self._bindings(rewritings[0], None), *evaluated]
        outputs: dict[tuple[Any, ...], None] = {}
        for source in sources:
            for output in source:
                outputs.setdefault(output)
        # The polynomials stay alive in ``evaluated``, so their ids name
        # them for the whole loop.
        entries: dict[tuple[int, ...], Any] = {}
        result: TuplePolynomials = {}
        for output in outputs:
            polynomials = [
                per_tuple.get(output, _ZERO) for per_tuple in evaluated
            ]
            identity = tuple(map(id, polynomials))
            entry = entries.get(identity)
            if entry is None:
                aligned: list[CitationPolynomial | None] = [None] * len(
                    rewritings
                )
                for position, polynomial in zip(kept, polynomials):
                    aligned[position] = polynomial
                entry = entries[identity] = (
                    tuple(aligned), self._combine_rewritings(polynomials)
                )
            result[output] = entry
        return result

    def _assemble(
        self,
        query: ConjunctiveQuery | UnionQuery,
        rewritings: tuple[Rewriting, ...],
        polynomials: TuplePolynomials,
        pruned: dict[int, PrunedRewriting],
    ) -> CitationResult:
        """Def 3.4: ``Agg`` over the per-tuple citations, symbolic and
        rendered (through one :class:`_Rendering`), with the
        neutral-element database citation."""
        rendering = _Rendering(self)
        skipped = _SkippedRewritings(
            self, {position: rewritings[position] for position in pruned}
        ) if pruned else None
        tuples = {
            output: TupleCitation(
                output, aligned, combined, rendering.polynomial(combined),
                skipped,
            )
            for output, (aligned, combined) in polynomials.items()
        }
        combined = [tc.polynomial for tc in tuples.values()]
        if self.policy.idempotent_plus:
            # A repeated polynomial object adds nothing to a union.
            combined = list({id(p): p for p in combined}.values())
        aggregate = self._plus(combined)
        if self.policy.order is not None:
            aggregate = absorbing_sum([aggregate], self.policy.order)
        records, database_citation = rendering.aggregate(
            [tc.records for tc in tuples.values()]
        )
        return CitationResult(
            query=query,
            policy=self.policy,
            rewritings=rewritings,
            tuples=tuples,
            aggregate_polynomial=aggregate,
            records=records,
            database_citation=database_citation,
            pruned=pruned,
        )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def _token_record(self, token: CitationToken) -> Record:
        cached = self.record_cache.get(token, version=self._epoch)
        if cached is not None:
            if _sanitizer._active:
                _sanitizer.check_record_serve(
                    self.record_cache.label, self.db, cached,
                    self._render(token, None),
                )
            return cached
        record = self._render(token, self.planner)
        self.record_cache.put(token, record, version=self._epoch)
        if isinstance(token, ViewCitationToken):
            self._cached_views.add(token.view_name)
        return record

    def _render(
        self, token: CitationToken, planner: QueryPlanner | None
    ) -> Record:
        if isinstance(token, ViewCitationToken):
            view = self.registry.get(token.view_name)
            return view.citation_for(
                self.db, token.parameters, planner=planner
            )
        if isinstance(token, BaseRelationToken):
            return {"Relation": token.relation}
        return {"Token": repr(token)}  # pragma: no cover - no other kinds

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def cite(
        self, query: ConjunctiveQuery | UnionQuery | str
    ) -> CitationResult:
        """Compute ``cite(D, Q, V)`` — the paper's Defs 3.1–3.4, end to end.

        Enumerates the Def 2.2 rewritings of the query, builds one
        ``·``-monomial per distinct λ-valuation of a binding (Def 3.1),
        sums them into per-tuple, per-rewriting polynomials (Def 3.2),
        combines the rewritings with
        ``+R`` (Def 3.3 / Section 3.4 "best"), and aggregates across the
        result set with ``Agg`` (Def 3.4).  A union's tuple is cited by
        ``+`` over the disjuncts that derive it.  This is
        ``cite_batch([query])[0]``.

        Parameters
        ----------
        query:
            The user query — a :class:`~repro.cq.query.ConjunctiveQuery`,
            a :class:`~repro.cq.ucq.UnionQuery`, or Datalog text: one
            rule is a conjunctive query, a stack of rules a union
            (:func:`~repro.cq.ucq.parse_datalog`).

        Returns
        -------
        CitationResult
            Per-tuple citations (:attr:`CitationResult.tuples`), the
            aggregated polynomial, and the rendered citation records
            under this engine's policy.
        """
        return self.cite_batch([query])[0]

    def cite_batch(
        self,
        queries: "Sequence[ConjunctiveQuery | UnionQuery | str]",
    ) -> list[CitationResult]:
        """Cite a whole workload, sharing work across the queries.

        The one citation pipeline: :meth:`cite`, :meth:`cite_union`,
        :meth:`cite_sql`, the service and the workload runner all cite
        through it.  A conjunctive query is a union of one rule; a union
        contributes its minimized disjuncts
        (:meth:`~repro.cq.ucq.UnionQuery.minimized`, memoized per
        union shape).  Every disjunct of
        the batch is rewritten, and the rewritings its order does not
        rank below the best are planned and have their shared plan
        prefixes reserved, together (:meth:`_group_batch`).  Each
        query's result is then Defs 3.1–3.3 per disjunct, ``+`` across
        the disjuncts that produce a tuple, and Def 3.4
        (:meth:`_cite_query`).

        Repeated or template-shaped traffic pays each expensive step
        once —

        - rewriting enumeration is memoized per query template, with
          constants lifted into slots (:attr:`rewriting_engine`, so a
          follow-up batch, or the same shape with a new constant,
          starts warm);
        - query plans are shared through :attr:`planner`;
        - views are materialized once, into the engine's view store,
          whose indexes serve every later query;
        - a join prefix shared by two or more plans of the batch is
          evaluated once through the :attr:`subplan_memo`.

        Parameters
        ----------
        queries:
            The workload, as query objects or Datalog text (see
            :meth:`cite`).

        Returns
        -------
        One :class:`CitationResult` per query, in order: the citation
        each query gets when cited alone.
        """
        submitted = [
            parse_datalog(query) if isinstance(query, str) else query
            for query in queries
        ]
        disjuncts = [
            self._minimal_disjuncts(query) if isinstance(query, UnionQuery)
            else (query,)
            for query in submitted
        ]
        grouped = iter(self._group_batch(
            [disjunct for group in disjuncts for disjunct in group]
        ))
        return [
            self._cite_query(query, [next(grouped) for __ in group])
            for query, group in zip(submitted, disjuncts)
        ]

    def _minimal_disjuncts(
        self, union: UnionQuery
    ) -> tuple[ConjunctiveQuery, ...]:
        """The disjuncts :meth:`UnionQuery.minimized
        <repro.cq.ucq.UnionQuery.minimized>` keeps, replayed from
        :attr:`minimization_memo` for a union whose disjuncts have the
        same canonical keys."""
        key = tuple(canonical_key(disjunct) for disjunct in union.disjuncts)
        positions = self.minimization_memo.get(key)
        if positions is None:
            positions = union.minimal_positions()
            self.minimization_memo.put(key, positions)
        return tuple(union.disjuncts[index] for index in positions)

    def _pruned(
        self, rewritings: tuple[Rewriting, ...]
    ) -> dict[int, PrunedRewriting]:
        """The rewritings Section 3.4 absorbs for every output tuple:
        those the policy's order ranks below the best
        (:meth:`~repro.citation.order.MonomialOrder.rewriting_rank`).

        Validated rewritings are equivalent to the query (Def 2.2), so
        every one derives every output tuple, and a best-ranked one has
        a non-zero polynomial for each.  Every monomial of a worse-ranked
        rewriting is strictly below all of its monomials, so ``+R``
        ("best") drops the worse one's polynomial and the normal form
        (after either ``+R``) its monomials.  Strict domination is
        transitive, so dropping them changes no other decision.  Without
        validation (``validate=False``) or a rank, nothing is skipped.
        """
        order = self.policy.order
        if (
            order is None
            or len(rewritings) < 2
            or not self.rewriting_engine.engine.validate
        ):
            return {}
        ranks = [order.rewriting_rank(rewriting) for rewriting in rewritings]
        best = min(ranks)
        pruned = {}
        for position, rank in enumerate(ranks):
            if rank != best:
                (level, count), (__, kept_count) = next(
                    pair for pair in zip(rank, best) if pair[0] != pair[1]
                )
                pruned[position] = PrunedRewriting(level, count, kept_count)
        return pruned

    def _group_batch(
        self, disjuncts: Sequence[ConjunctiveQuery]
    ) -> list[_Disjunct]:
        """Rewrite and plan the batch, reserving shared plan prefixes.

        Every rewriting of every disjunct is enumerated (through the
        rewriting cache) and the ones :meth:`_pruned` keeps are planned
        (through the plan cache) exactly once here; the prefix keys of
        all the plans are counted, and
        each plan's *longest* prefix key carried by two or more plans is
        reserved in the :attr:`subplan_memo` — the first execution of a
        reserved prefix materializes its bindings, every later plan in
        the batch (and in follow-up traffic) seeds from them.  Prefixes
        unique to one plan are never reserved, so unshared queries skip
        materialization entirely; and reserving only maximal shared
        prefixes keeps intermediate levels nobody would seed from out of
        the memo (a plan that shares a *shorter* prefix with the group
        reserves that shorter key itself).  A skipped rewriting is
        neither planned nor counted, so no prefix is materialized for
        it.
        """
        virtual = self._materialized()
        batch = []
        for disjunct in disjuncts:
            rewritings = tuple(self.rewriting_engine.rewrite(disjunct))
            pruned = self._pruned(rewritings)
            kept = tuple(
                position for position in range(len(rewritings))
                if position not in pruned
            )
            plans = tuple(
                self.planner.plan(rewritings[position].query, virtual)
                for position in kept
            )
            batch.append(_Disjunct(rewritings, kept, plans, pruned))
        reserve_shared_prefixes(
            [plan for disjunct in batch for plan in disjunct.plans],
            self.subplan_memo,
        )
        return batch

    def _cite_query(
        self,
        query: ConjunctiveQuery | UnionQuery,
        batch: list[_Disjunct],
    ) -> CitationResult:
        """One query's result from its disjuncts' rewritings and plans.

        Under the concurrency sanitizer, a query that skipped rewritings
        is cited again through every rewriting, and the two must give
        the same tuples in the same order, the same combined polynomial
        per tuple and the same aggregate
        (:func:`~repro.analysis.sanitizer.check_pruned_citation`).
        """
        rewritings, polynomials, pruned = self._query_polynomials(batch)
        result = self._assemble(query, rewritings, polynomials, pruned)
        if pruned and _sanitizer._active:
            __, unpruned, __ = self._query_polynomials([
                _Disjunct(
                    disjunct.rewritings,
                    tuple(range(len(disjunct.rewritings))),
                    (None,) * len(disjunct.rewritings),
                    {},
                )
                for disjunct in batch
            ])
            combined = [
                (output, polynomial)
                for output, (__, polynomial) in unpruned.items()
            ]
            # The normal form of the sum is absorbing_sum of one
            # polynomial; called directly, Agg's absorption still runs
            # once per citation.
            aggregate = self._plus([polynomial for __, polynomial in combined])
            if self.policy.order is not None:
                aggregate = normal_form(aggregate, self.policy.order)
            _sanitizer.check_pruned_citation(
                "rewriting pruning",
                [
                    *((output, tc.polynomial)
                      for output, tc in result.tuples.items()),
                    ("aggregate", result.aggregate_polynomial),
                ],
                [*combined, ("aggregate", aggregate)],
            )
        return result

    def _query_polynomials(
        self, batch: list[_Disjunct]
    ) -> tuple[
        tuple[Rewriting, ...], TuplePolynomials, dict[int, PrunedRewriting]
    ]:
        """Defs 3.1–3.3 for one query: its rewritings (every disjunct's,
        concatenated), its tuples' polynomials, and the skipped
        positions among the rewritings.

        Disjuncts are alternative derivations of the same output tuples,
        so per-tuple citations combine with ``+`` across disjuncts —
        exactly the alternative-use semantics of Section 3.1.  Each
        disjunct stops after Defs 3.1–3.3; the query is aggregated and
        rendered once (:meth:`_assemble`).
        """
        disjuncts = [
            (disjunct, self._tuple_polynomials(disjunct))
            for disjunct in batch
        ]
        if len(disjuncts) == 1:
            # One disjunct's polynomials are already in normal form.
            ((disjunct, polynomials),) = disjuncts
            return disjunct.rewritings, polynomials, disjunct.pruned

        outputs: dict[tuple[Any, ...], None] = {}
        for __, polynomials in disjuncts:
            for output in polynomials:
                outputs.setdefault(output)

        # Tuples that take the same entry object from every disjunct
        # (None where a disjunct does not produce them) share one entry;
        # the entries stay alive in ``disjuncts``.
        entries: dict[tuple[int, ...], Any] = {}
        tuples: TuplePolynomials = {}
        for output in outputs:
            derived = [
                polynomials.get(output) for __, polynomials in disjuncts
            ]
            identity = tuple(map(id, derived))
            entry = entries.get(identity)
            if entry is None:
                combined = self._plus([
                    pair[1] for pair in derived if pair is not None
                ])
                if self.policy.order is not None:
                    combined = self._normal_form(combined, self.policy.order)
                # Keep per_rewriting aligned with the concatenated
                # rewriting list: a disjunct that does not produce this
                # tuple contributes zero polynomials for each of its
                # rewritings.
                per_rewriting = tuple(
                    polynomial
                    for (disjunct, __), pair in zip(disjuncts, derived)
                    for polynomial in (
                        pair[0] if pair is not None
                        else (_ZERO,) * len(disjunct.rewritings)
                    )
                )
                entry = entries[identity] = (per_rewriting, combined)
            tuples[output] = entry

        rewritings: list[Rewriting] = []
        pruned: dict[int, PrunedRewriting] = {}
        for disjunct, __ in disjuncts:
            for position, why in disjunct.pruned.items():
                pruned[len(rewritings) + position] = why
            rewritings.extend(disjunct.rewritings)
        return tuple(rewritings), tuples, pruned

    def cite_sql(self, sql: str) -> CitationResult:
        """Compute the citation for a SQL SELECT statement."""
        return self.cite(parse_sql(sql, self.db.schema))

    def cite_union(self, union: UnionQuery | str) -> CitationResult:
        """Citation for a union of conjunctive queries (SPJU's U):
        :meth:`cite`, which combines a tuple's citations with ``+``
        across the disjuncts that produce it."""
        return self.cite(union)

    def cite_view(
        self, view_name: str, params: tuple[Any, ...] = ()
    ) -> Record:
        """Directly cite a view instance (the hard-coded web-page case)."""
        return self.registry.get(view_name).citation_for(
            self.db, params, planner=self.planner
        )
