"""RL102 fixture: cache-named attributes built as plain dicts.

Deliberately violating file — the lint self-test asserts RL102 flags
it.  Never imported; excluded from ruff (see pyproject.toml).
"""

from collections import OrderedDict

from repro.util.lru import VersionedLRU


class UnboundedCaches:
    def __init__(self):
        # VIOLATION x2: hand-rolled stores with no bound at all.
        self._plan_cache = {}
        self._result_memo = OrderedDict()


class SharedPrimitive:
    def __init__(self):
        # OK: the one cache primitive.
        self._plan_cache = VersionedLRU(128, "plan cache")
