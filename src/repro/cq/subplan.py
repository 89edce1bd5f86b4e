"""Cross-query common sub-plan sharing (Section 4: "caching and
materialization").

Template-shaped repository traffic overlaps *structurally*: many queries
of a batch share the same join prefix (the same first plan steps, up to
variable renaming) and differ only in their suffixes.  The per-query
caches built so far — rewriting enumeration, α-equivalent plans, warmed
indexes — still evaluate that shared prefix once **per query**.  This
module adds the cross-query multiplier: a :class:`SubplanMemo` maps
canonical *prefix keys* (:func:`repro.cq.plan.prefix_keys`) to the
materialized binding sequence of the prefix, so a batch evaluates each
shared join prefix once and every other query seeds its suffix from the
memoized bindings.

Correctness discipline:

- Memoized bindings are the *exact* serial binding sequence of the
  prefix (materialized through the same operator chain the plain
  executor runs, residual re-checks included), stored in canonical
  variable space and remapped through each consumer plan's renaming.
  Key equality guarantees the consumer's prefix performs the identical
  computation, so seeding changes neither the multiset nor the order of
  results — the property suite asserts planned ≡ reference exactly,
  seeded and unseeded.
- Entries are version-aware, tagged like plans
  (:func:`~repro.cq.plan.cache_tags`): with the versions of the base
  relations and the views the prefix reads.  A row change to one of
  them makes the stored bindings unreachable, and the next execution
  re-materializes; a write to any other relation leaves them warm.
- The memo is a :class:`~repro.util.lru.VersionedLRU`, bounded and
  counted like every other engine cache.

Sharing is *reserved*, not speculative:
:meth:`~repro.citation.generator.CitationEngine.cite_batch` groups the
batch by shared prefix keys and reserves only keys at least two plans
carry, so single-shot queries never pay materialization for bindings
nobody else will read.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

from repro.cq.executor import (
    Binding,
    SequenceSourceOperator,
    _comparison_checker,
    build_operator_chain,
    execute_plan,
    execute_plan_seeded,
)
from repro.cq.plan import (
    JoinStep,
    PrefixKey,
    QueryPlan,
    cache_tags,
    prefix_keys,
)
from repro.relational.database import Database
from repro.util.lru import VersionedLRU

#: Default memo bound.  Smaller than the plan/rewriting cache bounds:
#: each entry holds a materialized binding list, not just a plan.
DEFAULT_MEMO_ENTRIES = 1024


def _prefix_tags(
    steps: Sequence[JoinStep], db: Database, virtual: Database | None
) -> tuple[Database, tuple, tuple]:
    """The cache tags of a prefix: the relations its steps read, in step
    order, so producer and consumer (whose equal keys already imply the
    same steps) compute identical tags."""
    return cache_tags((step.atom.relation for step in steps), db, virtual)


class SubplanMemo(VersionedLRU[PrefixKey, list[Binding]]):
    """Version-aware memo: prefix key → materialized prefix bindings.

    A :class:`~repro.util.lru.VersionedLRU` whose entries store the
    prefix's binding sequence in canonical variable space (``p0, p1,
    ...`` — the renaming of :func:`~repro.cq.plan.prefix_keys`), tagged
    with the database they were computed over (by identity: equal keys
    over *different* databases describe different data) and the
    versions of the relations and views the prefix reads; :meth:`lookup`
    drops entries whose tags no longer match, so data mutations
    invalidate transparently.

    Keys must be :meth:`reserve`-d before :func:`execute_plan_shared`
    will materialize them — the batch layer reserves exactly the keys
    shared by two or more plans.  ``hits`` counts executions seeded from
    the memo, ``misses`` executions that had to materialize a reserved
    prefix, ``evictions`` LRU evictions of stored entries.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES) -> None:
        super().__init__(max_entries, "sub-plan memo")
        self._reserved: VersionedLRU[PrefixKey, bool] = VersionedLRU(
            max_entries, "sub-plan reservations"
        )

    #: ``lookup(key, db, versions, token)``: the valid bindings for
    #: ``key`` or None; ``store(key, bindings, db, versions, token)``.
    lookup = VersionedLRU.get
    store = VersionedLRU.put

    def reserve(self, key: PrefixKey) -> None:
        """Mark a prefix key as shared (worth materializing once)."""
        self._reserved.put(key, True)

    def is_reserved(self, key: PrefixKey) -> bool:
        return key in self._reserved

    @property
    def reserved_count(self) -> int:
        """How many prefix keys are currently reserved (shared by ≥2
        plans at some point); the service exposes this on ``/stats``."""
        return len(self._reserved)

    @property
    def worth_checking(self) -> bool:
        """False while the memo can neither serve nor want anything —
        callers skip prefix-key computation entirely then."""
        return bool(len(self) or len(self._reserved))

    def counters(self) -> dict[str, int]:
        return {**super().counters(), "reserved": self.reserved_count}

    def clear(self) -> None:
        super().clear()
        self._reserved.clear()


def reserve_shared_prefixes(
    plans: Sequence[QueryPlan], memo: SubplanMemo
) -> int:
    """Reserve each plan's longest prefix key carried by ≥ 2 plans.

    This is the reservation discipline of
    :meth:`~repro.citation.generator.CitationEngine.cite_batch` (over
    every disjunct of every query in the batch), shared with
    :meth:`~repro.cq.ucq.UnionQuery.evaluate` and
    :meth:`~repro.cq.ucq.UnionQuery.explain`: prefix keys of all the
    plans are counted, and each plan reserves only its *longest* key
    that at least two plans carry — single-shot prefixes never pay
    materialization, and intermediate levels nobody would seed from stay
    out of the memo.  Fewer than two plans share nothing, so no prefix
    key is computed for them.  Returns the number of reservations made
    (shared prefixes found).
    """
    if len(plans) < 2:
        return 0
    all_keys = [
        prefix_keys(plan)[0] for plan in plans if not plan.empty
    ]
    counts: dict[PrefixKey, int] = {}
    for keys in all_keys:
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    reserved = 0
    for keys in all_keys:
        for key in reversed(keys):
            if counts[key] >= 2:
                memo.reserve(key)
                reserved += 1
                break
    return reserved


def execute_plan_shared(
    plan: QueryPlan,
    db: Database,
    virtual: Database | None = None,
    memo: SubplanMemo | None = None,
) -> Iterator[Binding]:
    """Stream a plan's bindings, seeding/feeding the sub-plan memo.

    Produces exactly the binding sequence of
    :func:`~repro.cq.executor.execute_plan` — same multiset, same order:

    1. the longest prefix with a *valid* memo entry seeds execution
       (bindings remapped from canonical space, suffix steps run as
       usual);
    2. every longer prefix that is *reserved* is materialized level by
       level on the way (stored for the rest of the batch);
    3. the remaining suffix streams through
       :func:`~repro.cq.executor.execute_plan_seeded`.

    With no memo (or nothing reserved/stored) this is a plain
    :func:`~repro.cq.executor.execute_plan` with zero overhead beyond
    the key probe.
    """
    if plan.empty:
        return
    if memo is None or not plan.steps or not memo.worth_checking:
        yield from execute_plan(plan, db, virtual)
        return

    keys, renaming = prefix_keys(plan)
    count = len(keys)

    def tags(length: int) -> tuple[Database, tuple, tuple]:
        return _prefix_tags(plan.steps[:length], db, virtual)

    hit_length = 0
    canonical_seeds: list[Binding] | None = None
    for length in range(count, 0, -1):
        if keys[length - 1] not in memo:
            continue  # tags are only worth computing on presence
        current = tags(length)
        if memo.peek(keys[length - 1], *current) is not None:
            # Served through lookup so the hit is counted once per
            # seeded execution (and sanitizer-checked at the serve).
            canonical_seeds = memo.lookup(keys[length - 1], *current)
            hit_length = length
            break
    pending = [
        length
        for length in range(hit_length + 1, count + 1)
        if memo.is_reserved(keys[length - 1])
    ]
    if not hit_length and not pending:
        yield from execute_plan(plan, db, virtual)
        return

    if hit_length:
        inverse = {canon: orig for orig, canon in renaming.items()}
        assert canonical_seeds is not None
        bindings: list[Binding] = [
            {inverse[var]: value for var, value in binding.items()}
            for binding in canonical_seeds
        ]
    else:
        bindings = [{}]
    level = hit_length
    if pending:
        memo.misses += 1
        check = _comparison_checker(plan.query.name, set())
        for length in pending:
            bindings = list(
                build_operator_chain(
                    SequenceSourceOperator(bindings),
                    plan.steps[level:length],
                    db,
                    virtual,
                    check,
                )
            )
            memo.store(
                keys[length - 1],
                [
                    {renaming[var]: value for var, value in binding.items()}
                    for binding in bindings
                ],
                *tags(length),
            )
            level = length
    yield from execute_plan_seeded(plan, db, virtual, bindings, level)


def explain_with_memo(
    plan: QueryPlan,
    memo: SubplanMemo | None,
    db: Database,
    virtual: Database | None = None,
    diagnostics: Any = None,
) -> str:
    """EXPLAIN with the sub-plan memo's view of the plan appended.

    Renders ``shared prefix: ... reused from memo`` when a prefix of the
    plan would seed from a valid memo entry, and the reservation state
    when the batch has marked a prefix as shared but nobody has
    materialized it yet.  Purely observational: neither counters nor
    LRU order change.  ``diagnostics`` forwards to
    :meth:`~repro.cq.plan.QueryPlan.explain`.
    """
    text = plan.explain(diagnostics=diagnostics)
    if memo is None or plan.empty or not plan.steps:
        return text
    keys, __ = prefix_keys(plan)

    def span(length: int) -> str:
        return "step 1" if length == 1 else f"steps 1-{length}"

    for length in range(len(keys), 0, -1):
        key = keys[length - 1]
        current = _prefix_tags(plan.steps[:length], db, virtual)
        if memo.peek(key, *current) is not None:
            return (
                f"{text}\n  shared prefix: {span(length)} "
                "reused from memo"
            )
        if memo.is_reserved(key):
            return (
                f"{text}\n  shared prefix: {span(length)} shared across "
                "the batch (materialized on first execution)"
            )
    return text
