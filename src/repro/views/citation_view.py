"""The citation-view triple ``(V, C_V, F_V)`` of Definition 2.1.

``V`` and ``C_V`` are conjunctive queries sharing the same ordered
λ-parameters ``X``; for every valuation of ``X`` the citation function
``F_V`` turns the output of ``C_V`` into a single citation record that
annotates *all* tuples of the corresponding view instance.

Example (the paper's ``V1``/``CV1``)::

    v1 = CitationView.from_strings(
        view="lambda F. V1(F, N, Ty) :- Family(F, N, Ty)",
        citation_query=(
            "lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), "
            "Person(C, Pn, A)"
        ),
        labels=("ID", "Name", "Committee"),
    )
    v1.citation_for(db, ("11",))
    # {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.errors import ParameterError, ViewError
from repro.relational.database import Database

#: Signature of a citation function F_V: rows of the (instantiated)
#: citation query, head labels, and the λ-parameter valuation.
CitationFunction = Callable[
    [list[tuple[Any, ...]], Sequence[str], Mapping[str, Any]], dict
]


def pinned_queries(
    query: ConjunctiveQuery, relation: str, values: Sequence[Any]
) -> Iterator[ConjunctiveQuery]:
    """``query`` with one atom over ``relation`` pinned to the row
    ``values``, once per such atom that the row can match.

    Pinning substitutes the row's values for the atom's variables
    throughout the query.  Over a state that contains the row, the
    union of the pinned queries' results is exactly what the row
    contributes to ``query`` — the delta rule of incremental view
    maintenance (Gupta, Mumick & Subrahmanian, SIGMOD 1993).  An atom
    whose constants or repeated variables the row contradicts is
    skipped.
    """
    for atom in query.atoms:
        if atom.relation != relation or atom.arity != len(values):
            continue
        substitution: dict[Variable, Constant] = {}
        for term, value in zip(atom.terms, values):
            if isinstance(term, Constant):
                if term.value != value:
                    break
            elif term in substitution:
                if substitution[term].value != value:
                    break
            else:
                substitution[term] = Constant(value)
        else:
            yield query.substitute(substitution)


def default_citation_function(
    rows: list[tuple[Any, ...]],
    labels: Sequence[str],
    params: Mapping[str, Any],
) -> dict:
    """The library's default ``F_V``: fold rows into one JSON-like record.

    Columns with a single distinct value become scalar fields; columns with
    several values become sorted lists.  This reproduces the JSON citations
    of Example 2.1, e.g. two committee rows for family 11 fold into
    ``Committee: ["Hay", "Poyner"]``.
    """
    record: dict[str, Any] = {}
    for index, label in enumerate(labels):
        values: dict[Any, None] = {}
        for row in rows:
            values.setdefault(row[index])
        distinct = list(values)
        if len(distinct) == 1:
            record[label] = distinct[0]
        elif distinct:
            try:
                record[label] = sorted(distinct)
            except TypeError:
                record[label] = sorted(distinct, key=repr)
    return record


def _pinned_result(
    query: ConjunctiveQuery, db: Database, relation: str,
    values: Sequence[Any],
) -> list[tuple[Any, ...]]:
    """The deduplicated union of :func:`pinned_queries` results."""
    results: dict[tuple[Any, ...], None] = {}
    for pinned in pinned_queries(query, relation, values):
        results.update(dict.fromkeys(evaluate_query(pinned, db)))
    return list(results)


class RecordCitationFunction:
    """A configurable record-building ``F_V``.

    Parameters
    ----------
    list_fields:
        Labels that should always render as lists, even when a single
        value is present (e.g. ``Committee``).
    constant_fields:
        Extra constant fields injected into every citation produced by the
        view (e.g. ``{"Database": "GtoPdb"}``).
    """

    def __init__(
        self,
        list_fields: Sequence[str] = (),
        constant_fields: Mapping[str, Any] | None = None,
    ) -> None:
        self._list_fields = set(list_fields)
        self._constant_fields = dict(constant_fields or {})

    def __call__(
        self,
        rows: list[tuple[Any, ...]],
        labels: Sequence[str],
        params: Mapping[str, Any],
    ) -> dict:
        record = default_citation_function(rows, labels, params)
        for label in self._list_fields:
            if label in record and not isinstance(record[label], list):
                record[label] = [record[label]]
        record.update(self._constant_fields)
        return record


class CitationView:
    """A citation view ``(V, C_V, F_V)``.

    Parameters
    ----------
    view:
        The view definition ``λX. V(Y) :- Q`` (a safe conjunctive query;
        its λ-parameters must be head variables, per Def 2.1's ``X ⊆ Y``).
    citation_query:
        The citation query ``λX. C_V(Y') :- Q'`` with the same parameter
        names in the same order.
    citation_function:
        ``F_V``; defaults to :func:`default_citation_function`.
    labels:
        Labels for the citation query's head columns (used by record-
        building citation functions).  Defaults to ``col0..colN``.
    description:
        Optional human-readable description shown in documentation output.
    """

    def __init__(
        self,
        view: ConjunctiveQuery,
        citation_query: ConjunctiveQuery,
        citation_function: CitationFunction | None = None,
        labels: Sequence[str] | None = None,
        description: str = "",
    ) -> None:
        view.check_safety()
        citation_query.check_safety()
        view_params = [p.name for p in view.parameters]
        cq_params = [p.name for p in citation_query.parameters]
        if view_params != cq_params:
            raise ParameterError(
                f"view {view.name} and citation query {citation_query.name} "
                f"must share λ-parameters: {view_params} vs {cq_params}"
            )
        head_vars = {v.name for v in view.head_variables()}
        for param in view_params:
            if param not in head_vars:
                raise ViewError(
                    f"λ-parameter {param!r} of view {view.name} must be a "
                    "head variable (Def 2.1 requires X ⊆ Y)"
                )
        self.view = view
        self.citation_query = citation_query
        self.citation_function: CitationFunction = (
            citation_function or default_citation_function
        )
        if labels is None:
            labels = tuple(f"col{i}" for i in range(len(citation_query.head)))
        if len(labels) != len(citation_query.head):
            raise ViewError(
                f"{view.name}: got {len(labels)} labels for a citation query "
                f"with {len(citation_query.head)} head columns"
            )
        self.labels: tuple[str, ...] = tuple(labels)
        self.description = description
        # Hoisted parameterless forms: the full-extension queries used by
        # `instance()`/`citation_rows()` when no valuation is supplied.
        # Deriving them once here (instead of per call) keeps repeated
        # portal materializations α-equivalent *and* object-identical, so
        # a shared planner's exact-match fast path hits.
        self._view_extension = (
            view.with_parameters(()) if view.is_parameterized else view
        )
        self._citation_extension = (
            citation_query.with_parameters(())
            if citation_query.is_parameterized
            else citation_query
        )
        # C_V projected onto its λ-parameters: the valuations whose
        # records a row change can alter (see stale_parameters).
        self._parameter_query = ConjunctiveQuery(
            citation_query.name,
            citation_query.parameters,
            citation_query.atoms,
            citation_query.comparisons,
        )
        atom_terms = view.atoms[0].terms if len(view.atoms) == 1 else ()
        #: True when the view is one atom over distinct variables, all
        #: in the head, with no constants or comparisons: its extension
        #: is the relation's rows projected one to one, in insertion
        #: order, so a row change patches it by one tuple.
        self.is_scan = (
            bool(atom_terms)
            and not view.comparisons
            and all(isinstance(term, Variable) for term in atom_terms)
            and len(set(atom_terms)) == len(atom_terms)
            and set(atom_terms) <= set(view.head)
        )

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        view: str,
        citation_query: str,
        citation_function: CitationFunction | None = None,
        labels: Sequence[str] | None = None,
        description: str = "",
    ) -> "CitationView":
        """Build a citation view from Datalog-style strings."""
        return cls(
            parse_query(view),
            parse_query(citation_query),
            citation_function,
            labels,
            description,
        )

    # -- inspection ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """The view's name (its head predicate)."""
        return self.view.name

    @property
    def parameters(self) -> tuple:
        """The λ-parameters (shared by view and citation query)."""
        return self.view.parameters

    @property
    def is_parameterized(self) -> bool:
        return self.view.is_parameterized

    def parameter_positions(self) -> tuple[int, ...]:
        """Positions of the λ-parameters within the view head.

        Because ``X ⊆ Y``, every parameter occurs in the head; its first
        head position is used to read parameter values off view atoms in
        rewritings.
        """
        positions = []
        for param in self.view.parameters:
            for index, term in enumerate(self.view.head):
                if term == param:
                    positions.append(index)
                    break
        return tuple(positions)

    # -- semantics -----------------------------------------------------------------

    def instance(
        self,
        db: Database,
        params: Sequence[Any] | None = None,
        planner: QueryPlanner | None = None,
    ) -> list[tuple[Any, ...]]:
        """The view instance ``V(Y)(a1..an)`` (or the full unparameterized
        extension when ``params`` is omitted).

        With a ``planner`` the evaluation goes through its shared plan
        cache, so repeated portal instantiations plan the view once.
        """
        if params is None and self.is_parameterized:
            return evaluate_query(self._view_extension, db, planner=planner)
        return evaluate_query(self.view, db, params=params, planner=planner)

    @property
    def extension(self) -> ConjunctiveQuery:
        """The view definition with its λ-parameters free: the query
        whose result is the full extension :meth:`instance` returns."""
        return self._view_extension

    def delta(
        self, db: Database, relation: str, values: Sequence[Any]
    ) -> list[tuple[Any, ...]]:
        """The extension tuples the row ``values`` of ``relation`` derives.

        ``db`` must contain the row (after an insert, before a delete).
        The pinned queries are planned outside any shared plan cache:
        their constants would fill it with one-off entries.
        """
        return _pinned_result(self._view_extension, db, relation, values)

    def stale_parameters(
        self, db: Database, relation: str, values: Sequence[Any]
    ) -> list[tuple[Any, ...]]:
        """The λ-valuations whose citation records read the row.

        ``C_V`` with one atom pinned to the row, projected onto the
        λ-parameters, over a state that contains the row: exactly the
        valuations whose ``C_V`` output — and so whose record — the
        row's insert or delete changes.  A parameterless ``C_V`` yields
        ``[()]`` when the row reaches it and ``[]`` otherwise.
        """
        return _pinned_result(self._parameter_query, db, relation, values)

    def citation_rows(
        self,
        db: Database,
        params: Sequence[Any] | None = None,
        planner: QueryPlanner | None = None,
    ) -> list[tuple[Any, ...]]:
        """Output of the citation query for a parameter valuation."""
        if params is None and self.is_parameterized:
            return evaluate_query(
                self._citation_extension, db, planner=planner
            )
        return evaluate_query(
            self.citation_query, db, params=params, planner=planner
        )

    def citation_for(
        self,
        db: Database,
        params: Sequence[Any] = (),
        planner: QueryPlanner | None = None,
    ) -> dict:
        """The citation record ``F_V(C_V(Y')(a1..an))``."""
        if len(params) != len(self.parameters):
            raise ParameterError(
                f"{self.name} takes {len(self.parameters)} parameter(s), "
                f"got {len(params)}"
            )
        rows = self.citation_rows(
            db,
            params=list(params) if params else None,
            planner=planner,
        )
        param_map = {
            param.name: value
            for param, value in zip(self.parameters, params)
        }
        return self.citation_function(rows, self.labels, param_map)

    def __repr__(self) -> str:
        return f"CitationView({self.view!r})"
