"""Small shared utilities: fresh-name supply, JSON helpers."""

from repro.util.naming import NameSupply, fresh_variable_name
from repro.util.jsonutil import canonical_json, merge_records, union_records

__all__ = [
    "NameSupply",
    "fresh_variable_name",
    "canonical_json",
    "merge_records",
    "union_records",
]
