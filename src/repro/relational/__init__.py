"""In-memory relational database substrate.

The paper's model is defined over a relational database with conjunctive
queries; GtoPdb itself is a production relational database.  This subpackage
is the from-scratch storage substrate: value domains, relation schemas with
primary and foreign keys, database instances with integrity enforcement and
indexes, and the per-relation statistics the planner costs with.  Queries
over it are conjunctive queries, evaluated by :mod:`repro.cq`.
"""

from repro.relational.types import (
    AttributeType,
    INT,
    STRING,
    FLOAT,
    BOOL,
    ANY,
    infer_type,
    value_matches,
)
from repro.relational.schema import Attribute, ForeignKey, RelationSchema, Schema
from repro.relational.statistics import RelationStatistics
from repro.relational.tuples import Row
from repro.relational.database import Database, RelationInstance, view_store
from repro.relational.expressions import ComparisonOp

__all__ = [
    "AttributeType",
    "INT",
    "STRING",
    "FLOAT",
    "BOOL",
    "ANY",
    "infer_type",
    "value_matches",
    "Attribute",
    "ForeignKey",
    "RelationSchema",
    "Schema",
    "Row",
    "Database",
    "RelationInstance",
    "view_store",
    "RelationStatistics",
    "ComparisonOp",
]
