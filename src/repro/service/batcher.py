"""The engine lane: one worker serializing all engine work, with
cross-client micro-batching of single-query citation requests.

The :class:`~repro.citation.generator.CitationEngine` (and the database
under it) is not thread-safe, and its whole value in a service is the
*shared* warm state — plan cache, rewriting cache, sub-plan memo,
secondary indexes.  The lane is the engine's one serialization point —
the engine itself holds no lock — and gives it exactly one execution
thread at a time:

- every engine-touching job (cite, plan, analyze, insert, delete) is
  queued and executed in admission order on a single worker, so a write
  is either entirely before or entirely after any read — in-flight
  citations always see a consistent snapshot;
- consecutive queued single-query ``cite`` jobs, conjunctive or union,
  coalesce into **one**
  :meth:`~repro.citation.generator.CitationEngine.cite_batch` call, so
  concurrent traffic shares the sub-plan memo and plan cache exactly
  like a hand-built batch would.  The worker runs a batch as soon as it
  picks up a cite job: what coalesces is what queued behind the job
  before it, never a wait for more.  When the coalesced call raises,
  each job is cited alone, so a failing query fails only its own
  request;
- the queue is bounded: when ``max_pending`` jobs are outstanding,
  :meth:`EngineLane.submit_cite` / :meth:`EngineLane.submit` raise
  :class:`AdmissionFull` and the server answers 429 with
  ``Retry-After`` — backpressure instead of unbounded buffering.

Jobs run via :func:`asyncio.to_thread`, so the event loop keeps
accepting (and rejecting, and timing out) requests while the engine
computes.  A caller that times out abandons its future; the lane still
completes the job (results are delivered to whoever is still waiting)
and the worker never leaks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.citation.generator import CitationEngine, CitationResult
from repro.cq.query import ConjunctiveQuery
from repro.cq.ucq import UnionQuery


class AdmissionFull(Exception):
    """The bounded admission queue is full; the caller should retry."""


class LaneClosed(Exception):
    """The lane is draining or stopped; no new work is admitted."""


class _Job:
    __slots__ = ("kind", "payload", "future")

    def __init__(self, kind: str, payload: Any,
                 future: "asyncio.Future[Any]") -> None:
        self.kind = kind
        self.payload = payload
        self.future = future


def _deliver(future: "asyncio.Future[Any]", result: Any = None,
             error: BaseException | None = None) -> None:
    """Complete a future unless its waiter already gave up on it."""
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
        # A waiter that timed out never retrieves the exception; mark it
        # retrieved so the event loop does not log a spurious warning.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
    else:
        future.set_result(result)


class EngineLane:
    """Single-worker job lane over one shared :class:`CitationEngine`.

    Parameters
    ----------
    engine:
        The shared engine; only the lane's worker ever touches it.
    max_pending:
        Bound on *outstanding* jobs (queued + running).  Submissions
        beyond it raise :class:`AdmissionFull`.
    max_batch:
        Largest number of single-query cite jobs coalesced into one
        ``cite_batch`` call: the job the worker picks up plus the cite
        jobs queued right behind it.
    on_batch:
        Optional callback ``(size) -> None`` invoked per executed
        coalesced batch (feeds the service metrics).
    """

    def __init__(
        self,
        engine: CitationEngine,
        max_pending: int = 64,
        max_batch: int = 16,
        on_batch: Callable[[int], None] | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.on_batch = on_batch
        self._jobs: deque[_Job] = deque()
        self._wakeup = asyncio.Event()
        self._outstanding = 0
        self._closing = False
        self._worker: asyncio.Task[None] | None = None
        self._owned_db: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._worker is None:
            if _sanitizer.is_active() and self._owned_db is None:
                # Declare the lane the database's owning context: from
                # here until drain, the sanitizer rejects mutations that
                # bypass the lane's serialized jobs.
                db = getattr(self.engine, "db", None)
                if db is not None:
                    _sanitizer.bind_owner(db, "engine lane")
                    self._owned_db = db
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name="repro-engine-lane"
            )

    async def stop(self) -> None:
        """Drain: finish every admitted job, reject new ones, stop."""
        self._closing = True
        self._wakeup.set()
        if self._worker is not None:
            await self._worker
            self._worker = None
        if self._owned_db is not None:
            _sanitizer.release_owner(self._owned_db)
            self._owned_db = None

    @property
    def outstanding(self) -> int:
        """Jobs admitted but not yet completed (queued + running)."""
        return self._outstanding

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _admit(self, kind: str, payload: Any) -> "asyncio.Future[Any]":
        if self._closing:
            raise LaneClosed("service is draining")
        if self._outstanding >= self.max_pending:
            raise AdmissionFull(
                f"{self._outstanding} jobs outstanding "
                f"(limit {self.max_pending})"
            )
        future: asyncio.Future[Any] = (
            asyncio.get_running_loop().create_future()
        )
        self._outstanding += 1
        future.add_done_callback(self._job_done)
        self._jobs.append(_Job(kind, payload, future))
        self._wakeup.set()
        return future

    def _job_done(self, __future: "asyncio.Future[Any]") -> None:
        self._outstanding -= 1

    def submit_cite(
        self, query: ConjunctiveQuery | UnionQuery
    ) -> "asyncio.Future[CitationResult]":
        """Queue one query, conjunctive or union, for micro-batched
        citation."""
        return self._admit("cite", query)

    def submit(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Queue an exclusive engine job (mutation, plan, analysis, a
        whole ``/cite-batch``…).

        ``fn`` runs alone on the worker thread, strictly ordered against
        every other job — the consistency story for writes.
        """
        return self._admit("call", fn)

    # ------------------------------------------------------------------
    # the worker
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            while not self._jobs:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            job = self._jobs.popleft()
            if job.kind == "cite":
                await self._run_cite_batch(job)
            else:
                await self._run_call(job.future, job.payload)

    def _run_owned(self, fn: Callable[[], Any]) -> Any:
        """Run a lane job with the lane's mutation grant.

        Jobs execute via :func:`asyncio.to_thread` on *varying* executor
        threads, so the sanitizer's ownership grant is a thread-local
        token taken per job, not a thread identity.
        """
        if self._owned_db is None or not _sanitizer.is_active():
            return fn()
        with _sanitizer.owner_context(self._owned_db):
            return fn()

    async def _run_call(
        self, future: "asyncio.Future[Any]", fn: Callable[[], Any]
    ) -> None:
        try:
            result = await asyncio.to_thread(self._run_owned, fn)
        except BaseException as exc:  # noqa: B036 - forwarded, not handled
            _deliver(future, error=exc)
        else:
            _deliver(future, result)

    def _coalesce(self, first: _Job) -> list[_Job]:
        """The micro-batch: ``first`` plus every immediately-following
        queued cite job, up to ``max_batch``."""
        batch = [first]
        while (
            len(batch) < self.max_batch
            and self._jobs
            and self._jobs[0].kind == "cite"
        ):
            batch.append(self._jobs.popleft())
        return batch

    async def _run_cite_batch(self, first: _Job) -> None:
        batch = self._coalesce(first)
        queries = [job.payload for job in batch]
        try:
            results = await asyncio.to_thread(
                self._run_owned, lambda: self.engine.cite_batch(queries)
            )
        except Exception as exc:  # noqa: B902 - forwarded per future
            if len(batch) == 1:
                _deliver(first.future, error=exc)
            else:
                # One query's error must not fail its batch-mates: cite
                # each alone, so each gets its own result or error.
                for job in batch:
                    await self._run_call(
                        job.future,
                        lambda query=job.payload: self.engine.cite_batch(
                            [query]
                        )[0],
                    )
        except BaseException as exc:  # noqa: B036 - forwarded per future
            for job in batch:
                _deliver(job.future, error=exc)
        else:
            for job, result in zip(batch, results):
                _deliver(job.future, result)
        if self.on_batch is not None:
            self.on_batch(len(batch))


async def wait_bounded(
    future: "asyncio.Future[Any]", timeout: float | None
) -> Any:
    """Await a lane future under a deadline without cancelling the job.

    The future is shielded: on timeout the job keeps running to
    completion on the lane (keeping the engine's serialization intact
    and letting batch-mates receive their results); only this waiter
    gives up.  Raises :class:`asyncio.TimeoutError` on expiry.
    """
    if timeout is None:
        return await future
    return await asyncio.wait_for(asyncio.shield(future), timeout)
