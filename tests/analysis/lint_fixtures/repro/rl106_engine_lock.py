"""RL106 fixture: locks built outside the sanitizer.

Deliberately violating file — the lint self-test asserts RL106 flags
it.  Never imported; excluded from ruff (see pyproject.toml).
"""

import threading
from threading import RLock


class LockedEngine:
    def __init__(self):
        # VIOLATION x2: a second serialization point beside the lane.
        self._exec_lock = threading.RLock()
        self._stats_lock = RLock()
        # OK: an event is a signal, not a lock.
        self._ready = threading.Event()
