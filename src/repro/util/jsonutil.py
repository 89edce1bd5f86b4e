"""JSON-record helpers used by citation combiners and formatters.

The paper's Example 3.5 interprets the citation operators over JSON-like
records: ``·`` may be *union of records* (keep both records side by side) or
*join/merge* (factor out common fields and union the rest).  These helpers
implement that record algebra over plain Python dicts/lists.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable
from typing import Any

#: Values :func:`copy_json` shares instead of copying: they are immutable.
_IMMUTABLE = (str, int, float, bool, type(None))


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to a canonical (sorted-key, compact) JSON string.

    Used to hash/compare citation records deterministically.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def copy_json(value: Any) -> Any:
    """A deep copy of a JSON-like value that shares no dict or list with it.

    Dispatches on the exact ``type()``: dicts and lists are rebuilt,
    immutable scalars are shared, and anything else goes through
    :func:`copy.deepcopy`.
    """
    kind = type(value)
    if kind is dict:
        return {field: copy_json(item) for field, item in value.items()}
    if kind is list:
        return [copy_json(item) for item in value]
    if kind in _IMMUTABLE:
        return value
    return copy.deepcopy(value)


def union_records(
    records: list[dict[str, Any]],
    key: Callable[[dict[str, Any]], str] = canonical_json,
) -> list[dict[str, Any]]:
    """Union of records: keep every distinct record (Example 3.5, option 1).

    Duplicates (by ``key``, the canonical JSON unless the caller passes
    a memoized equivalent) are collapsed; order of first occurrence is
    preserved.
    """
    seen: set[str] = set()
    result: list[dict[str, Any]] = []
    for record in records:
        record_key = key(record)
        if record_key not in seen:
            seen.add(record_key)
            result.append(record)
    return result


def _merge_values(left: Any, right: Any) -> Any:
    """Merge two field values: equal scalars collapse, lists union, dicts merge."""
    if left == right:
        return left
    if isinstance(left, dict) and isinstance(right, dict):
        return merge_records([left, right])
    left_list = left if isinstance(left, list) else [left]
    right_list = right if isinstance(right, list) else [right]
    merged = list(left_list)
    for item in right_list:
        if item not in merged:
            merged.append(item)
    return merged


def merge_records(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Join/merge records: factor out common fields (Example 3.5, option 2).

    Fields present in several records with equal values appear once; fields
    with conflicting values are unioned into a list.  This reproduces the
    paper's merge of the family-11 citations::

        {ID, Name, Committee} . {ID, Name, Text, Contributors}
        ==> {ID, Name, Committee, Text, Contributors}
    """
    result: dict[str, Any] = {}
    for record in records:
        for field, value in record.items():
            if field in result:
                result[field] = _merge_values(result[field], value)
            else:
                result[field] = value
    return result
