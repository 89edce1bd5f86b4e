"""Record-level interpretations of the combining functions (Example 3.5).

The algebra of :mod:`repro.citation.polynomial` is symbolic; at rendering
time each token becomes a JSON-like record and the abstract operations get
concrete interpretations:

- ``·`` — :func:`dot_union` keeps the records side by side;
  :func:`dot_merge` joins them, factoring out common fields (the paper's
  two suggested readings);
- ``+`` / ``+R`` — :func:`plus_union` unions alternative records;
  :func:`plus_merge` merges them into one record;
- ``Agg`` — :func:`agg_union` / :func:`agg_merge`, with
  :func:`with_neutral` injecting the always-present records (Def 3.4's
  neutral element: the database name, its NAR publication, ...).

Every combiner takes the same ``key`` argument: the function the union
interpretations deduplicate records by.  It defaults to the record's
canonical JSON; the citation engine passes a per-call memo of it, so a
record met in many tuples is serialized once.  The merge
interpretations accept and ignore it, so each table entry is called the
same way.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.util.jsonutil import canonical_json, merge_records, union_records

Record = dict[str, Any]
RecordKey = Callable[[Record], str]


def dot_union(
    records: list[Record], key: RecordKey = canonical_json
) -> list[Record]:
    """``·`` as union of records: keep each part of the joint citation."""
    return union_records(records, key)


def dot_merge(
    records: list[Record], key: RecordKey = canonical_json
) -> list[Record]:
    """``·`` as join/merge: factor out common fields into one record."""
    if not records:
        return []
    return [merge_records(records)]


def plus_union(
    alternatives: list[list[Record]], key: RecordKey = canonical_json
) -> list[Record]:
    """``+`` / ``+R`` as union: keep every alternative citation."""
    flattened: list[Record] = []
    for records in alternatives:
        flattened.extend(records)
    return union_records(flattened, key)


def plus_merge(
    alternatives: list[list[Record]], key: RecordKey = canonical_json
) -> list[Record]:
    """``+`` / ``+R`` as merge: fold all alternatives into one record.

    Reproduces the paper's example::

        {ID, Name, Committee: [Hay, Poyner]}
        +R {ID, Committee: [Brown], Contributors: [Smith]}
        = {ID, Name, Committee: [Hay, Poyner, Brown], Contributors: [Smith]}
    """
    flattened: list[Record] = []
    for records in alternatives:
        flattened.extend(records)
    if not flattened:
        return []
    return [merge_records(flattened)]


def agg_union(
    per_tuple: list[list[Record]], key: RecordKey = canonical_json
) -> list[Record]:
    """``Agg`` as union of all per-tuple citations."""
    return plus_union(per_tuple, key)


def agg_merge(
    per_tuple: list[list[Record]], key: RecordKey = canonical_json
) -> list[Record]:
    """``Agg`` as a single merged result-set citation."""
    return plus_merge(per_tuple)


def with_neutral(
    records: list[Record],
    neutral: list[Record],
    key: RecordKey = canonical_json,
) -> list[Record]:
    """Prepend the neutral-element records (deduplicated).

    Even an empty result set carries these (Def 3.4): typically the
    database's own citation.
    """
    return union_records(list(neutral) + records, key)


DOT_INTERPRETATIONS = {"union": dot_union, "merge": dot_merge}
PLUS_INTERPRETATIONS = {"union": plus_union, "merge": plus_merge}
AGG_INTERPRETATIONS = {"union": agg_union, "merge": agg_merge}
