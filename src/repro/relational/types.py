"""Attribute domains for relation schemas.

The model in the paper is untyped, but a production database substrate needs
value domains so integrity errors surface early.  We keep the domain lattice
minimal: ``INT``, ``FLOAT``, ``STRING``, ``BOOL``, and the top type ``ANY``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import Any

from repro.errors import TypeMismatchError


class AttributeType(enum.Enum):
    """Domain of an attribute."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    ANY = "any"

    def __str__(self) -> str:
        return self.value


INT = AttributeType.INT
FLOAT = AttributeType.FLOAT
STRING = AttributeType.STRING
BOOL = AttributeType.BOOL
ANY = AttributeType.ANY


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


# Values accepted by each domain.  bool is a subclass of int in Python, so
# the INT check must exclude bool explicitly.  ANY admits every hashable
# value: stored rows key the relation's row dict and its indexes.
_CHECKERS = {
    AttributeType.INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    AttributeType.FLOAT: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    AttributeType.STRING: lambda v: isinstance(v, str),
    AttributeType.BOOL: lambda v: isinstance(v, bool),
    AttributeType.ANY: _hashable,
}


def domain_checker(domain: AttributeType) -> Callable[[Any], bool]:
    """The membership test of ``domain``: resolve it once per column,
    then call it per value."""
    return _CHECKERS[domain]


def value_matches(value: Any, domain: AttributeType) -> bool:
    """Return True if ``value`` belongs to ``domain``."""
    return _CHECKERS[domain](value)


def check_value(value: Any, domain: AttributeType, context: str = "") -> None:
    """Raise :class:`TypeMismatchError` unless ``value`` belongs to ``domain``."""
    if not value_matches(value, domain):
        where = f" in {context}" if context else ""
        raise TypeMismatchError(
            f"value {value!r} does not belong to domain {domain}{where}"
        )


def infer_type(value: Any) -> AttributeType:
    """Infer the tightest domain for a Python value."""
    if isinstance(value, bool):
        return AttributeType.BOOL
    if isinstance(value, int):
        return AttributeType.INT
    if isinstance(value, float):
        return AttributeType.FLOAT
    if isinstance(value, str):
        return AttributeType.STRING
    return AttributeType.ANY
