"""Reference renderer: citation records rendered tuple by tuple.

The citation engine renders each distinct token record, monomial and
dedup key once per call.  This module keeps the renderer that did the
same work once per output tuple as an executable specification of
Def 3.4 and Example 3.5: every tuple's records come from its
``TupleCitation.polynomial``, with a fresh ``CitationView.citation_for``
record per token, ``·`` per monomial and ``+`` per tuple; ``Agg`` and
the neutral element then combine those.  Every union deduplicates by
canonical JSON computed on the spot.

``tests/properties/test_render_differential.py`` and the E6 benchmark
compare the engine with it, and both count ``canonical_json`` calls
with :func:`counting_canonical_json`.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterator
from typing import Any

import repro.util.jsonutil as jsonutil
from repro.citation.tokens import ViewCitationToken
from repro.util.jsonutil import merge_records

Record = dict[str, Any]


def _key(record: Record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


def _union(records: list[Record]) -> list[Record]:
    seen: set[str] = set()
    kept = []
    for record in records:
        key = _key(record)
        if key not in seen:
            seen.add(key)
            kept.append(record)
    return kept


def _flatten(alternatives: list[list[Record]]) -> list[Record]:
    return [record for records in alternatives for record in records]


def _merge(alternatives: list[list[Record]]) -> list[Record]:
    flattened = _flatten(alternatives)
    return [merge_records(flattened)] if flattened else []


def _token_record(engine: Any, token: Any) -> Record:
    if isinstance(token, ViewCitationToken):
        view = engine.registry.get(token.view_name)
        return view.citation_for(engine.db, token.parameters)
    return {"Relation": token.relation}


def polynomial_records(engine: Any, polynomial: Any) -> list[Record]:
    """One tuple's records: ``·`` per monomial, then ``+``."""
    policy = engine.policy
    alternatives = []
    for monomial, coefficient in polynomial.terms.items():
        tokens = [_token_record(engine, t) for t in monomial.tokens()]
        if policy.dot == "union":
            records = _union(tokens)
        else:
            records = _merge([tokens])
        if policy.plus == "counted" and coefficient > 1:
            records = [
                {**record, "DerivationCount": coefficient}
                for record in records
            ]
        alternatives.append(records)
    return _union(_flatten(alternatives))


def reference_citation(
    engine: Any, result: Any
) -> tuple[Record, list[list[Record]]]:
    """``result``'s ``citation()`` payload and per-tuple records, as
    the per-tuple renderer makes them from its polynomials."""
    policy = engine.policy
    per_tuple = [
        polynomial_records(engine, citation.polynomial)
        for citation in result.tuples.values()
    ]
    if policy.agg == "union":
        records = _union(_flatten(per_tuple))
    else:
        records = _merge(per_tuple)
    if policy.include_database_citation:
        records = _union(list(engine.database_citation) + records)
    payload = {
        "query": repr(result.query),
        "policy": policy.name,
        "database": list(engine.database_citation),
        "citations": records,
    }
    return payload, per_tuple


def as_json(value: Any) -> str:
    """``value`` as a JSON client reads it, keys in insertion order."""
    return json.dumps(value, default=str)


def distinct_records(result: Any) -> int:
    """How many distinct records (by content) ``result`` returns."""
    records = list(result.records) + list(result.database_citation)
    for citation in result.tuples.values():
        records.extend(citation.records)
    return len({_key(record) for record in records})


@contextlib.contextmanager
def counting_canonical_json() -> Iterator[list[int]]:
    """Count ``canonical_json`` calls however callers bound the
    function: the count sits on the ``json`` module it serializes
    through.  Yields a one-element list holding the count."""
    calls = [0]

    class CountingJson:
        def __getattr__(self, name: str) -> Any:
            return getattr(json, name)

        @staticmethod
        def dumps(*args: Any, **kwargs: Any) -> str:
            calls[0] += 1
            return json.dumps(*args, **kwargs)

    original = jsonutil.json
    jsonutil.json = CountingJson()  # type: ignore[assignment]
    try:
        yield calls
    finally:
        jsonutil.json = original
