"""Runtime concurrency sanitizer: prove the lane/cache discipline
instead of assuming it.

The engine's concurrency correctness rests on conventions no type
checker sees: *all* engine access is serialized through the service's
engine lane; version-keyed caches re-validate their version tags and
tokens before serving; and nothing blocks the service
event loop.  This module checks those conventions at runtime — the same
opt-in sanitizer posture as the plan verifier
(:mod:`repro.analysis.verifier`), extended from plans to threads and
caches.

Enable it with any of:

- ``REPRO_SANITIZE=always`` in the environment (read at import);
- :func:`set_sanitize`;
- ``pytest --sanitize`` (the repo conftest flips the switch before any
  test runs, mirroring ``--verify-plans``).

The switch is process-wide, like plan verification: ownership state
is a global property of the process, not of one engine.
Disabled (the default), every instrumentation hook is a single module
attribute check — the hot paths pay one branch.

Checks
------

ownership
    :func:`bind_owner` tags a database with its owning context (the
    engine lane binds at start).  Mutations of an owned database are
    only legal under :func:`owner_context` — the thread-local grant the
    lane holds while running a job.
experimental thread affinity
    While a citation pipeline is evaluating
    (:func:`execution_region`), mutations from *other* threads raise —
    the in-flight execution would observe a torn snapshot.
version-keyed caches
    :func:`check_cache_serve` — called from the one cache primitive,
    :meth:`repro.util.lru.VersionedLRU.get` — re-validates,
    independently of the cache's own check, that a served entry's
    version tag (the ``stats_version``, or the per-relation versions
    plans, sub-plan memo entries and QA analyses are tagged with) and
    token match the live database — and that the live
    ``stats_version`` agrees with the sanitizer's own shadow count of
    effective mutations (:func:`note_effective_mutations`), so a
    mutation path that forgets to bump the version is caught at the
    first stale serve it would have enabled.
maintained records
    :func:`check_record_serve` — called by the citation engine on every
    record-cache hit, with the record re-rendered from the live data —
    raises when the served record differs: a row change whose record
    delta missed a token is caught at the first serve of that token.
replayed absorption
    :func:`check_absorption_serve` — called by the citation engine on
    every absorption-memo hit, with the decision recomputed by
    ``best_polynomials`` or ``normal_form`` — raises when the replayed
    polynomials differ: a token shape that misses something the order
    reads is caught at the first tuple it decides wrongly.
pruned rewritings
    :func:`check_pruned_citation` — called by the citation engine for
    every query whose order let it skip rewritings, with the query
    cited again through every rewriting — raises when the tuple order,
    a tuple's combined polynomial or the aggregate differ: a rank that
    misses something the order reads, or skipped rewritings that are
    not equivalent to the query, are caught at the first query they
    change.
instantiated rewritings
    :func:`check_rewriting_serve` — called by the rewriting cache on
    every hit that swapped the caller's constants into its entry's
    rewritings, with the query enumerated afresh — raises when the
    lists differ: a template key that misses something Def 2.2 reads
    from the constants is caught at the first query it serves wrongly.
event-loop blocking
    While active, ``time.sleep`` and blocking ``socket`` operations
    raise when executed on a thread with a *running* asyncio event
    loop (asyncio's own sockets are non-blocking and pass untouched).

Violations raise :class:`ConcurrencySanitizerError` carrying the check
name and, where ownership or a region is involved, the captured stack
of the context's establishment — both sides of the race in one error.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from itertools import zip_longest
from typing import Any

from repro.errors import ReproError

#: Sanitizer modes, mirroring :data:`repro.cq.plan.VERIFY_MODES`.
MODES = ("off", "always")


class ConcurrencySanitizerError(ReproError):
    """A concurrency-discipline violation caught by the sanitizer.

    Attributes
    ----------
    check:
        Short name of the violated check (``lane-ownership``,
        ``stale-cache``, ``version-integrity``, ``execution-affinity``,
        ``pruned-rewritings``, ``event-loop-blocking``).
    context_stack:
        The captured stack of where the violated context was
        established (owner bound, region entered), when one exists.
    """

    def __init__(
        self,
        check: str,
        message: str,
        context_stack: list[str] | None = None,
    ) -> None:
        self.check = check
        self.context_stack = context_stack
        text = f"[{check}] {message}"
        if context_stack:
            text += (
                "\n-- context established at --\n"
                + "".join(context_stack).rstrip()
            )
        super().__init__(text)


# ---------------------------------------------------------------------------
# mode switch
# ---------------------------------------------------------------------------

#: Process-wide switch; hot-path hooks read this attribute directly so
#: the disabled sanitizer costs one branch per hook.
_active = False
_mode = "off"

_state_lock = threading.Lock()
_local = threading.local()


class _Owner:
    __slots__ = ("label", "stack")

    def __init__(self, label: str, stack: list[str]) -> None:
        self.label = label
        self.stack = stack


class _Region:
    __slots__ = ("thread", "depth", "stack")

    def __init__(self, thread: int, stack: list[str]) -> None:
        self.thread = thread
        self.depth = 1
        self.stack = stack


#: id(db) -> (weakref, payload).  Keyed by id with the weakref kept for
#: liveness validation (a recycled id must never inherit a dead
#: database's state) and for removal on collection.
_owners: dict[int, tuple[Any, _Owner]] = {}
_regions: dict[int, tuple[Any, _Region]] = {}
#: id(db) -> (weakref, expected stats_version): the shadow count of
#: effective mutations, advanced by :func:`note_effective_mutations`.
_shadow: dict[int, tuple[Any, int]] = {}


def _capture() -> list[str]:
    """The current stack, minus the sanitizer's own frames."""
    return traceback.format_stack()[:-2]


def _describe(obj: Any) -> str:
    return f"{type(obj).__name__} 0x{id(obj):x}"


def _reaper(registry: dict[int, Any], key: int) -> Callable[[Any], None]:
    def _reap(__ref: Any) -> None:
        registry.pop(key, None)

    return _reap


def _entry(registry: dict[int, tuple[Any, Any]], obj: Any) -> Any:
    """The live payload registered for ``obj``, or None."""
    entry = registry.get(id(obj))
    if entry is None:
        return None
    ref, payload = entry
    if ref() is not obj:  # id recycled after collection
        registry.pop(id(obj), None)
        return None
    return payload


def _register(
    registry: dict[int, tuple[Any, Any]], obj: Any, payload: Any
) -> None:
    registry[id(obj)] = (weakref.ref(obj, _reaper(registry, id(obj))), payload)


def _reset_state() -> None:
    _owners.clear()
    _regions.clear()
    _shadow.clear()


def set_sanitize(mode: str) -> str:
    """Set the process-wide sanitizer mode; returns the previous one.

    ``"always"`` activates every check (and installs the blocking-call
    detectors over ``time.sleep`` and ``socket.socket``); ``"off"``
    restores the originals and drops all tracked state.
    """
    global _active, _mode
    if mode not in MODES:
        raise ValueError(
            f"sanitize mode must be one of {MODES}, got {mode!r}"
        )
    previous = _mode
    _mode = mode
    _active = mode == "always"
    if _active:
        _install_blocking_detectors()
    else:
        _uninstall_blocking_detectors()
        _reset_state()
    return previous


def sanitize_mode() -> str:
    """The current process-wide sanitizer mode."""
    return _mode


def is_active() -> bool:
    """Whether the sanitizer is currently enforcing its checks."""
    return _active


# ---------------------------------------------------------------------------
# ownership and affinity
# ---------------------------------------------------------------------------


def bind_owner(obj: Any, label: str) -> None:
    """Tag ``obj`` (a database) as owned by the context named ``label``.

    Once owned, mutations are only legal under :func:`owner_context`.
    Binding an already-owned object raises — two owners means two
    "serialized" lanes that would interleave on the same state.
    """
    if not _active:
        return
    with _state_lock:
        existing = _entry(_owners, obj)
        if existing is not None:
            raise ConcurrencySanitizerError(
                "lane-ownership",
                f"{_describe(obj)} is already owned by "
                f"{existing.label!r}; binding a second owner "
                f"({label!r}) would let two serialized lanes interleave",
                existing.stack,
            )
        _register(_owners, obj, _Owner(label, _capture()))


def release_owner(obj: Any) -> None:
    """Drop the ownership tag (the lane releases at drain)."""
    with _state_lock:
        _owners.pop(id(obj), None)


@contextmanager
def owner_context(obj: Any) -> Iterator[None]:
    """Grant the current thread mutation rights over owned ``obj``.

    The engine lane wraps each job's thread in this — jobs run via
    ``asyncio.to_thread`` on *varying* executor threads, so the grant
    is a thread-local token, not a thread identity.
    """
    if not _active:
        yield
        return
    grants = getattr(_local, "grants", None)
    if grants is None:
        grants = _local.grants = {}
    key = id(obj)
    grants[key] = grants.get(key, 0) + 1
    try:
        yield
    finally:
        grants[key] -= 1
        if not grants[key]:
            del grants[key]


@contextmanager
def execution_region(obj: Any) -> Iterator[None]:
    """Mark the current thread as evaluating a pipeline over ``obj``.

    Reentrant per thread.  A second *thread* entering concurrently, or
    any other thread mutating ``obj`` while the region is active,
    raises: the in-flight evaluation would observe a torn snapshot.
    """
    if not _active:
        yield
        return
    ident = threading.get_ident()
    with _state_lock:
        region = _entry(_regions, obj)
        if region is not None and region.thread != ident:
            raise ConcurrencySanitizerError(
                "execution-affinity",
                f"two threads are evaluating over {_describe(obj)} "
                "concurrently; engine access must be serialized "
                "through the engine lane",
                region.stack,
            )
        if region is not None:
            region.depth += 1
        else:
            _register(_regions, obj, _Region(ident, _capture()))
    try:
        yield
    finally:
        with _state_lock:
            region = _entry(_regions, obj)
            if region is not None:
                region.depth -= 1
                if not region.depth:
                    _regions.pop(id(obj), None)


def check_mutation(obj: Any) -> None:
    """Validate that mutating ``obj`` is legal right now.

    Called from the heads of the database mutators (insert, bulk
    insert, delete).  Ordered most-severe first: a mutation bypassing
    an owning lane breaks write serialization; one from a non-executing
    thread mid-evaluation tears the snapshot.
    """
    if not _active:
        return
    with _state_lock:
        owner = _entry(_owners, obj)
        region = _entry(_regions, obj)
    if owner is not None:
        grants = getattr(_local, "grants", None)
        if not grants or id(obj) not in grants:
            raise ConcurrencySanitizerError(
                "lane-ownership",
                f"{_describe(obj)} is owned by {owner.label!r} but was "
                f"mutated from thread "
                f"{threading.current_thread().name!r} outside a lane "
                "job; route mutations through the lane",
                owner.stack,
            )
    if region is not None and region.thread != threading.get_ident():
        raise ConcurrencySanitizerError(
            "execution-affinity",
            f"{_describe(obj)} mutated from thread "
            f"{threading.current_thread().name!r} while another thread "
            "is evaluating a citation pipeline over it",
            region.stack,
        )


# ---------------------------------------------------------------------------
# version-keyed caches
# ---------------------------------------------------------------------------


def note_effective_mutations(obj: Any, count: int) -> None:
    """Advance the shadow ``stats_version`` expectation for ``obj``.

    Called from :meth:`~repro.relational.database.RelationInstance
    ._note_mutation` *before* the database bumps its own counter, so
    the shadow tracks what the version **should** become.  A mutation
    path that skips the bump desynchronizes the two, and the next
    version-keyed cache serve reports it.
    """
    entry = _shadow.get(id(obj))
    if entry is not None and entry[0]() is obj:
        _shadow[id(obj)] = (entry[0], entry[1] + count)
    else:
        _register(_shadow, obj, None)
        ref = _shadow[id(obj)][0]
        _shadow[id(obj)] = (ref, obj.stats_version + count)


def _check_shadow(label: str, obj: Any, live: int) -> None:
    entry = _shadow.get(id(obj))
    if entry is not None and entry[0]() is obj and entry[1] != live:
        raise ConcurrencySanitizerError(
            "version-integrity",
            f"{label}: the database reports stats_version={live} but "
            f"the sanitizer counted mutations up to {entry[1]} — a "
            "mutation path failed to bump the version, so every "
            "version-keyed cache would serve stale entries",
        )


def check_cache_serve(
    label: str,
    obj: Any,
    stored_version: int,
    stored_token: Any = None,
    current_token: Any = None,
) -> None:
    """Re-validate a version-keyed cache serve, independently.

    ``obj`` is the database the cache is tagged with;
    ``stored_version``/``stored_token`` are the tags recorded on the
    entry being served — the version either ``stats_version`` or a
    tuple of ``(relation, version)`` pairs
    (:meth:`~repro.relational.database.Database.versions`) —
    ``current_token`` the token computed against the live state (for
    plans and memo entries over views, the view store with the views'
    versions).
    Raises when the entry is stale (the cache's own validation was
    bypassed or patched out) or when the live version disagrees with
    the mutation shadow count.
    """
    if not _active:
        return
    live = obj.stats_version
    if isinstance(stored_version, tuple):
        for name, version in stored_version:
            current = obj.relation(name).stats.version
            if version != current:
                raise ConcurrencySanitizerError(
                    "stale-cache",
                    f"{label} served an entry tagged {name} version="
                    f"{version} while that relation is at {current}; "
                    "the serve path did not re-validate the version",
                )
    elif stored_version != live:
        raise ConcurrencySanitizerError(
            "stale-cache",
            f"{label} served an entry tagged stats_version="
            f"{stored_version} while the database is at {live}; the "
            "serve path did not re-validate the version",
        )
    if stored_token != current_token:
        raise ConcurrencySanitizerError(
            "stale-cache",
            f"{label} served an entry whose content fingerprint "
            f"{stored_token!r} no longer matches the live fingerprint "
            f"{current_token!r}",
        )
    _check_shadow(label, obj, live)


def check_record_serve(
    label: str, obj: Any, served: Any, rendered: Any
) -> None:
    """Re-validate a maintained-record serve against a fresh render.

    ``served`` is the record a cache is about to return for one token,
    ``rendered`` the same token's record rendered from the live
    database ``obj``.  Raises when they differ (a row change's record
    delta missed this token) or when the live ``stats_version``
    disagrees with the mutation shadow count.
    """
    if not _active:
        return
    if served != rendered:
        raise ConcurrencySanitizerError(
            "stale-cache",
            f"{label} served {served!r}, but the live data renders "
            f"{rendered!r}; a row change did not drop the stale record",
        )
    _check_shadow(label, obj, obj.stats_version)


def check_absorption_serve(label: str, served: Any, computed: Any) -> None:
    """Re-validate a replayed Section 3.4 decision against the order.

    ``served`` is what a memo hit replays for one tuple (the polynomials
    ``+R`` keeps, or a normal form), ``computed`` what the order itself
    decides for the same input.  Raises when they differ.
    """
    if not _active:
        return
    if served != computed:
        raise ConcurrencySanitizerError(
            "stale-cache",
            f"{label} replayed {served!r}, but the order keeps "
            f"{computed!r}; the token shape misses something the order "
            "reads",
        )


def check_pruned_citation(
    label: str, served: list[Any], computed: list[Any]
) -> None:
    """Re-validate a citation that skipped rewritings.

    ``served`` lists what the citation gives — ``(output, combined
    polynomial)`` per tuple, in order, then ``("aggregate",
    polynomial)`` — and ``computed`` the same for the query cited
    through every rewriting.  Raises at the first entry that differs.
    """
    if not _active:
        return
    for index, (got, expected) in enumerate(
        zip_longest(served, computed)
    ):
        if got != expected:
            raise ConcurrencySanitizerError(
                "pruned-rewritings",
                f"{label}: entry {index} is {got!r}, but citing through "
                f"every rewriting gives {expected!r}; the rank misses "
                "something the order reads, or a skipped rewriting is "
                "not equivalent to the query",
            )


def check_rewriting_serve(label: str, served: Any, computed: Any) -> None:
    """Re-validate rewritings served with swapped constants.

    ``served`` is the list a rewriting-cache hit built by swapping the
    caller's constants into its entry's rewritings, ``computed`` what a
    fresh Def 2.2 enumeration returns for the same query.  Raises
    unless both hold the same rewritings in the same order.
    """
    if not _active:
        return
    if served != computed:
        raise ConcurrencySanitizerError(
            "stale-cache",
            f"{label} served {served!r}, but enumeration gives "
            f"{computed!r}; the template key misses something the "
            "rewriting reads from the constants",
        )


# ---------------------------------------------------------------------------
# blocking-call detection
# ---------------------------------------------------------------------------

_real_sleep: Any = None
_real_socket: Any = None


def check_blocking_call(what: str) -> None:
    """Raise when ``what`` (a blocking call) runs on an event-loop thread."""
    if not _active:
        return
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise ConcurrencySanitizerError(
        "event-loop-blocking",
        f"blocking call {what} executed on a thread with a running "
        "asyncio event loop; every request on that loop stalls behind "
        "it — use asyncio primitives or asyncio.to_thread",
    )


def _install_blocking_detectors() -> None:
    global _real_sleep, _real_socket
    if _real_sleep is not None:
        return
    _real_sleep = time.sleep

    def _sanitized_sleep(seconds: float) -> None:
        check_blocking_call(f"time.sleep({seconds!r})")
        _real_sleep(seconds)

    time.sleep = _sanitized_sleep

    _real_socket = socket.socket

    class _SanitizedSocket(_real_socket):  # type: ignore[valid-type, misc]
        """A socket whose blocking operations check for a running loop.

        Only sockets in blocking mode (``gettimeout() != 0``) are
        checked: asyncio's own sockets are non-blocking, so the loop's
        I/O passes untouched.
        """

        def _sanitize_op(self, op: str) -> None:
            try:
                blocking = self.gettimeout() != 0
            except OSError:  # closed/detached: the op will fail anyway
                return
            if blocking:
                check_blocking_call(f"socket.{op}")

        def connect(self, *args: Any) -> Any:
            self._sanitize_op("connect")
            return super().connect(*args)

        def accept(self) -> Any:
            self._sanitize_op("accept")
            return super().accept()

        def recv(self, *args: Any) -> Any:
            self._sanitize_op("recv")
            return super().recv(*args)

        def recv_into(self, *args: Any) -> Any:
            self._sanitize_op("recv_into")
            return super().recv_into(*args)

        def recvfrom(self, *args: Any) -> Any:
            self._sanitize_op("recvfrom")
            return super().recvfrom(*args)

        def send(self, *args: Any) -> Any:
            self._sanitize_op("send")
            return super().send(*args)

        def sendall(self, *args: Any) -> Any:
            self._sanitize_op("sendall")
            return super().sendall(*args)

        def sendto(self, *args: Any) -> Any:
            self._sanitize_op("sendto")
            return super().sendto(*args)

    socket.socket = _SanitizedSocket  # type: ignore[misc]


def _uninstall_blocking_detectors() -> None:
    global _real_sleep, _real_socket
    if _real_sleep is not None:
        time.sleep = _real_sleep
        _real_sleep = None
    if _real_socket is not None:
        socket.socket = _real_socket  # type: ignore[misc]
        _real_socket = None


# Seed from the environment, mirroring REPRO_VERIFY_PLANS: test runs and
# deployments flip the whole process on without touching call sites.
if os.environ.get("REPRO_SANITIZE", "off") == "always":
    set_sanitize("always")
