"""RL102 fixture: a cache-named dict bounded by hand.

Deliberately violating file — the lint self-test asserts RL102 flags
it.  Never imported; excluded from ruff (see pyproject.toml).
"""


class HandBoundedCache:
    def __init__(self):
        # VIOLATION: a hand-rolled bound re-implements the primitive.
        self._plan_cache = {}
        self._plan_cache_max = 128

    def get(self, key):
        return self._plan_cache.get(key)
