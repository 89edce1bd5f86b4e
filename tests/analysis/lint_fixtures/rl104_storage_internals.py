"""RL104 fixture: storage-internal attribute access outside relational/.

Deliberately violating file — the lint self-test asserts RL104 flags
it.  Never imported; excluded from ruff (see pyproject.toml).
"""


def count_rows_badly(db, relation):
    instance = db.relation(relation)
    # VIOLATION: reaches into the storage representation.
    return len(instance._rows)


def peek_indexes_badly(instance):
    # VIOLATION: the lazily built hash indexes are internals of the
    # relational layer.
    return {positions: len(index) for positions, index in
            instance._indexes.items()}


class FineInternally:
    def __init__(self):
        self._rows = {}

    def size(self):
        # OK: `self._rows` is this class's own attribute.
        return len(self._rows)
