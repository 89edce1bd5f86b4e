"""The comparison operators of queries.

:class:`ComparisonOp` is the operator vocabulary of the CQ comparison
atoms (:mod:`repro.cq.atoms`), the Datalog and SQL parsers, the
planner's range pushdown and the containment checks: parsing from text,
evaluation, and the flip/negate rules the planner and containment use.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable
from typing import Any

from repro.errors import QueryError


class ComparisonOp(enum.Enum):
    """The comparison operators supported in queries."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def function(self) -> Callable[[Any, Any], bool]:
        return _OP_FUNCTIONS[self]

    def flip(self) -> "ComparisonOp":
        """Operator with operands swapped: ``a < b`` iff ``b > a``."""
        return _FLIPPED[self]

    def negate(self) -> "ComparisonOp":
        """Logical negation: ``not (a < b)`` iff ``a >= b``."""
        return _NEGATED[self]

    @classmethod
    def parse(cls, text: str) -> "ComparisonOp":
        try:
            return _SYMBOLS[text]
        except KeyError:
            raise QueryError(f"unknown comparison operator: {text!r}") from None

    def __str__(self) -> str:
        return self.value


_OP_FUNCTIONS = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}

_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_NEGATED = {
    ComparisonOp.EQ: ComparisonOp.NE,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
}

_SYMBOLS = {
    "=": ComparisonOp.EQ,
    "==": ComparisonOp.EQ,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}
