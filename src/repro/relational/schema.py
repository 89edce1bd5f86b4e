"""Relation and database schemas.

A :class:`RelationSchema` declares attribute names, domains, an optional
primary key, and foreign keys; a :class:`Schema` is a named collection of
relation schemas with cross-relation validation.  The GtoPdb schema of the
paper (Example 2.1) is expressed in these terms in
:mod:`repro.gtopdb.schema`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import SchemaError, UnknownRelationError
from repro.relational.types import ANY, AttributeType


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a relation."""

    name: str
    domain: AttributeType = ANY

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid attribute name: {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name}:{self.domain}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key: ``columns`` of this relation reference ``ref_columns``
    of ``ref_relation`` (which must form its primary key)."""

    columns: tuple[str, ...]
    ref_relation: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns} vs {self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key must reference at least one column")

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        refs = ", ".join(self.ref_columns)
        return f"FK({cols}) -> {self.ref_relation}({refs})"


class RelationSchema:
    """Schema of a single relation.

    Parameters
    ----------
    name:
        Relation name (e.g. ``"Family"``).
    attributes:
        Ordered attributes.  Strings are promoted to untyped attributes.
    key:
        Names of the primary-key attributes (optional).
    foreign_keys:
        Foreign keys whose source columns must exist in this relation.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute | str],
        key: Sequence[str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid relation name: {name!r}")
        self.name = name
        self.attributes: tuple[Attribute, ...] = tuple(
            attr if isinstance(attr, Attribute) else Attribute(attr)
            for attr in attributes
        )
        if not self.attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [attr.name for attr in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {name!r}")
        self._positions = {attr.name: i for i, attr in enumerate(self.attributes)}
        self.key: tuple[str, ...] = tuple(key)
        for key_attr in self.key:
            if key_attr not in self._positions:
                raise SchemaError(
                    f"key attribute {key_attr!r} not in relation {name!r}"
                )
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in self._positions:
                    raise SchemaError(
                        f"foreign-key column {col!r} not in relation {name!r}"
                    )

    # -- lookups -------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    def position(self, attribute: str) -> int:
        """Index of ``attribute`` within the tuple layout."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def key_positions(self) -> tuple[int, ...]:
        """Positions of the primary-key attributes."""
        return tuple(self._positions[attr] for attr in self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
            and self.foreign_keys == other.foreign_keys
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))

    def __repr__(self) -> str:
        attrs = ", ".join(str(attr) for attr in self.attributes)
        key = f", key={list(self.key)}" if self.key else ""
        return f"RelationSchema({self.name!r}, [{attrs}]{key})"


class Schema:
    """A database schema: a named, ordered collection of relation schemas."""

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> None:
        """Add a relation schema; names must be unique."""
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name: {relation.name!r}")
        self._relations[relation.name] = relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def relation(self, name: str) -> RelationSchema:
        """Look up a relation schema by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def validate(self) -> None:
        """Check cross-relation consistency of all foreign keys.

        Each foreign key must point at an existing relation and its
        referenced columns must form that relation's primary key.
        """
        for relation in self:
            for fk in relation.foreign_keys:
                if fk.ref_relation not in self._relations:
                    raise SchemaError(
                        f"{relation.name}: {fk} references unknown relation"
                    )
                target = self._relations[fk.ref_relation]
                if tuple(fk.ref_columns) != target.key:
                    raise SchemaError(
                        f"{relation.name}: {fk} must reference the primary key "
                        f"{target.key} of {target.name}"
                    )

    def __repr__(self) -> str:
        return f"Schema({list(self._relations)})"
