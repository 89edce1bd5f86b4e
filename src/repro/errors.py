"""Exception hierarchy for the ``repro`` data-citation library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the package
layout: schema/instance errors from the relational substrate, query errors
from the conjunctive-query layer, view errors from the citation-view layer,
rewriting errors from the rewriting engine, and citation errors from the
citation algebra.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A relation schema or database schema is ill-formed."""


class UnknownRelationError(SchemaError):
    """A relation name was referenced that is not part of the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class ArityError(SchemaError):
    """A tuple or atom has the wrong number of fields for its relation."""

    def __init__(self, relation: str, expected: int, got: int) -> None:
        super().__init__(
            f"relation {relation!r} has arity {expected}, got {got} fields"
        )
        self.relation = relation
        self.expected = expected
        self.got = got


class IntegrityError(ReproError):
    """A database update violated a key or foreign-key constraint."""


class KeyViolationError(IntegrityError):
    """Inserting a tuple would duplicate a primary-key value."""


class ForeignKeyViolationError(IntegrityError):
    """A tuple references a key value that does not exist."""


class TypeMismatchError(ReproError):
    """A value does not belong to the declared attribute domain."""


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """A conjunctive query is ill-formed."""


class UnsafeQueryError(QueryError):
    """A head/comparison variable does not occur in any relational atom."""


class ParseError(QueryError):
    """A query string could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MixedTypeComparisonWarning(ReproError, UserWarning):
    """A comparison mixed incomparable types and was treated as false.

    Evaluation treats ``TypeError`` from a comparison (e.g. ``int < str``)
    as "binding does not satisfy the atom" — sound for set semantics, but
    a query whose comparisons *always* mix types silently returns an
    empty result.  The executor emits this warning once per query
    execution so such queries are debuggable.
    """

    def __init__(
        self,
        query_name: str,
        comparison: str,
        left_type: str,
        right_type: str,
    ) -> None:
        super().__init__(
            f"query {query_name!r}: comparison {comparison} mixes "
            f"incomparable types ({left_type} vs {right_type}); treating "
            "it as false"
        )
        self.query_name = query_name
        self.comparison = comparison
        self.left_type = left_type
        self.right_type = right_type


# ---------------------------------------------------------------------------
# Citation views
# ---------------------------------------------------------------------------


class ViewError(ReproError):
    """A citation view definition is ill-formed."""


class DuplicateViewError(ViewError):
    """Two views with the same name were registered."""


class ParameterError(ViewError):
    """View λ-parameters are inconsistent or a wrong valuation was given."""


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


class RewritingError(ReproError):
    """The rewriting engine was used incorrectly."""


# ---------------------------------------------------------------------------
# Citation algebra
# ---------------------------------------------------------------------------


class CitationError(ReproError):
    """Citation construction failed."""


class PolicyError(CitationError):
    """A citation policy is ill-formed or incompatible with the request."""


class StaleResultError(CitationError):
    """A citation result was asked, after the database changed, for the
    per-rewriting polynomials of rewritings it skipped."""


# ---------------------------------------------------------------------------
# Fixity / versioning
# ---------------------------------------------------------------------------


class VersionError(ReproError):
    """A versioned-database operation referenced an unknown version."""
