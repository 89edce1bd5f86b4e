"""Batch execution of citation workloads — in-process or over HTTP.

The paper's target deployment is a repository front-end issuing heavy,
repetitive query traffic.  :func:`run_workload` drives a
:class:`~repro.citation.generator.CitationEngine` over a
:class:`~repro.workload.logs.QueryLog` (or any sequence of queries)
through :meth:`~repro.citation.generator.CitationEngine.cite_batch`, and
reports how much work the shared caches — rewriting enumeration, query
plans, materialized-view indexes — actually saved.

:func:`replay_workload` is the client-side twin: it replays the same
workload against a *live* citation service (``repro serve``) over HTTP
and reports per-status counts, client-side latency, and the delta of
the server's cache counters across the run — the measurement the
service's "one warm process amortizes all traffic" claim rests on.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.citation.generator import CitationEngine, CitationResult
from repro.cq.query import ConjunctiveQuery
from repro.cq.ucq import UnionQuery
from repro.workload.logs import QueryLog


@dataclass
class WorkloadReport:
    """Results and cache effectiveness of one batch run."""

    results: list[CitationResult] = field(default_factory=list)
    queries_run: int = 0
    elapsed_seconds: float = 0.0
    rewriting_hits: int = 0
    rewriting_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    subplan_hits: int = 0
    subplan_misses: int = 0
    #: Queries run per class ("cq", "ucq"); absent classes are omitted.
    per_class: dict[str, int] = field(default_factory=dict)
    #: Diagnostic findings per QA code across the workload (populated by
    #: ``run_workload(..., analyze=True)``); empty when analysis is off.
    diagnostics: dict[str, int] = field(default_factory=dict)

    @property
    def rewriting_hit_rate(self) -> float:
        total = self.rewriting_hits + self.rewriting_misses
        return self.rewriting_hits / total if total else 0.0

    @property
    def subplan_hit_rate(self) -> float:
        total = self.subplan_hits + self.subplan_misses
        return self.subplan_hits / total if total else 0.0

    def describe(self) -> str:
        suffix = ""
        caches = (
            f"rewriting cache {self.rewriting_hits}/"
            f"{self.rewriting_hits + self.rewriting_misses} hits, "
            f"plan cache {self.plan_hits}/"
            f"{self.plan_hits + self.plan_misses} hits"
        )
        if self.subplan_hits or self.subplan_misses:
            caches += (
                f", subplan memo {self.subplan_hits}/"
                f"{self.subplan_hits + self.subplan_misses} hits"
            )
        if len(self.per_class) > 1:
            breakdown = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.per_class.items())
            )
            suffix += f" [{breakdown}]"
        if self.diagnostics:
            findings = ", ".join(
                f"{code}={count}"
                for code, count in sorted(self.diagnostics.items())
            )
            suffix += f"; diagnostics: {findings}"
        if self.elapsed_seconds <= 0:
            # Coarse clocks can measure a successful run as zero elapsed
            # time; keep the counts and cache effectiveness, drop only
            # the unreportable q/s figure.
            return f"{self.queries_run} queries; {caches}{suffix}"
        return (
            f"{self.queries_run} queries in {self.elapsed_seconds:.3f}s "
            f"({self.queries_run / self.elapsed_seconds:.1f} q/s); "
            f"{caches}{suffix}"
        )


def run_workload(
    engine: CitationEngine,
    workload: QueryLog | Sequence[ConjunctiveQuery | UnionQuery | str],
    repeat_frequencies: bool = False,
    analyze: bool = False,
) -> WorkloadReport:
    """Cite every query of a workload through the batch pipeline.

    This drives :meth:`~repro.citation.generator.CitationEngine
    .cite_batch` — i.e. ``cite(D, Q, V)`` (Defs 3.1–3.4) for every query
    of the workload — and measures what the shared caches saved.

    Workloads may mix query classes: :class:`~repro.cq.ucq.UnionQuery`
    entries (or multi-rule Datalog strings) and conjunctive queries cite
    in one ``cite_batch`` call, and results come back in workload order;
    the report counts queries per class in
    :attr:`WorkloadReport.per_class`.

    Parameters
    ----------
    engine:
        The citation engine (its caches are warmed and reused).
    workload:
        A :class:`QueryLog` or a plain sequence of queries / union
        queries / Datalog strings (multi-rule strings parse as unions).
    repeat_frequencies:
        When the workload is a log and this is True, each entry is cited
        ``frequency`` times — simulating the raw traffic rather than the
        distinct-query set, which is how cache hit rates should be read.
    analyze:
        When True, run static analysis
        (:mod:`repro.analysis.diagnostics`) over every workload query
        and aggregate findings per QA code into
        :attr:`WorkloadReport.diagnostics` — a cheap way to audit a
        whole query log for contradictions, cartesian products, and
        subsumed disjuncts in one pass.

    Returns
    -------
    WorkloadReport
        The per-query :class:`~repro.citation.generator.CitationResult`
        list (in workload order) plus
        timing and cache-effectiveness counters.
    """
    queries: list[ConjunctiveQuery | UnionQuery | str] = []
    if isinstance(workload, QueryLog):
        for entry in workload:
            repeats = entry.frequency if repeat_frequencies else 1
            queries.extend([entry.query] * repeats)
    else:
        queries = list(workload)

    planner = engine.planner
    rewriter = engine.rewriting_engine
    memo = engine.subplan_memo
    hits_before = rewriter.hits
    misses_before = rewriter.misses
    plan_hits_before = planner.hits
    plan_misses_before = planner.misses
    subplan_hits_before = memo.hits
    subplan_misses_before = memo.misses

    started = time.perf_counter()
    results = engine.cite_batch(queries)
    elapsed = time.perf_counter() - started

    # Each result carries its query as submitted, text parsed.
    per_class: dict[str, int] = {}
    for result in results:
        name = "ucq" if isinstance(result.query, UnionQuery) else "cq"
        per_class[name] = per_class.get(name, 0) + 1

    diagnostics: dict[str, int] = {}
    if analyze:
        from repro.analysis import analyze_query, analyze_union

        for result in results:
            query = result.query
            findings = (
                analyze_union(query, engine.db)
                if isinstance(query, UnionQuery)
                else analyze_query(query, engine.db)
            )
            for finding in findings:
                diagnostics[finding.code] = (
                    diagnostics.get(finding.code, 0) + 1
                )

    return WorkloadReport(
        results=results,
        queries_run=len(queries),
        elapsed_seconds=elapsed,
        rewriting_hits=rewriter.hits - hits_before,
        rewriting_misses=rewriter.misses - misses_before,
        plan_hits=planner.hits - plan_hits_before,
        plan_misses=planner.misses - plan_misses_before,
        subplan_hits=memo.hits - subplan_hits_before,
        subplan_misses=memo.misses - subplan_misses_before,
        per_class=per_class,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# HTTP replay: the same workload against a live citation service
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    """One workload replayed against a live service, with the server's
    cache-counter deltas across the run.

    The server-side counters come from ``GET /stats`` before and after
    the replay, so they measure exactly what *this* traffic hit — the
    cross-request amortization the warm service exists for.
    """

    queries_run: int = 0
    elapsed_seconds: float = 0.0
    #: HTTP status → count across the replay.
    statuses: dict[int, int] = field(default_factory=dict)
    mean_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    #: Server-side cache deltas (hits gained during the replay).
    plan_hits: int = 0
    plan_misses: int = 0
    rewriting_hits: int = 0
    rewriting_misses: int = 0
    subplan_hits: int = 0
    subplan_misses: int = 0
    #: Server-side micro-batches executed for this traffic.
    batches_executed: int = 0

    @property
    def ok_count(self) -> int:
        return sum(
            count for status, count in self.statuses.items()
            if 200 <= status < 300
        )

    @property
    def error_count(self) -> int:
        return self.queries_run - self.ok_count

    def describe(self) -> str:
        status_part = ", ".join(
            f"{status}={count}"
            for status, count in sorted(self.statuses.items())
        )
        caches = (
            f"server caches: plan +{self.plan_hits}/"
            f"{self.plan_hits + self.plan_misses} hits, "
            f"rewriting +{self.rewriting_hits}/"
            f"{self.rewriting_hits + self.rewriting_misses} hits, "
            f"subplan +{self.subplan_hits}/"
            f"{self.subplan_hits + self.subplan_misses} hits"
        )
        timing = ""
        if self.elapsed_seconds > 0:
            timing = (
                f" in {self.elapsed_seconds:.3f}s "
                f"({self.queries_run / self.elapsed_seconds:.1f} req/s, "
                f"mean {self.mean_latency_ms:.1f}ms, "
                f"max {self.max_latency_ms:.1f}ms)"
            )
        return (
            f"{self.queries_run} requests{timing} [{status_part}]; "
            f"{caches}; {self.batches_executed} server batches"
        )


def _counter(stats: dict, *path: str) -> int:
    """A counter out of a nested ``/stats`` payload; 0 when absent."""
    node: Any = stats
    for key in path:
        if not isinstance(node, dict):
            return 0
        node = node.get(key)
    return node if isinstance(node, int) else 0


def replay_workload(
    url: str,
    workload: QueryLog | Sequence[ConjunctiveQuery | UnionQuery | str],
    repeat_frequencies: bool = False,
    timeout: float = 60.0,
) -> ReplayReport:
    """Replay a workload against a live citation service over HTTP.

    Every entry is POSTed to ``/cite`` (query objects are rendered back
    to Datalog text; multi-rule strings cite as unions server-side), in
    order, on one keep-alive connection — the sequential-client shape
    of the service benchmark.  Responses are *not* parsed into
    :class:`~repro.citation.generator.CitationResult` objects; the
    report carries status counts and latencies instead, plus the deltas
    of the server's cache counters (from ``GET /stats`` before/after),
    so cross-request plan-cache and sub-plan-memo amortization is
    directly visible.

    Parameters
    ----------
    url:
        Service base URL, e.g. ``http://127.0.0.1:8747``.
    workload:
        Same shapes as :func:`run_workload`.
    repeat_frequencies:
        As in :func:`run_workload`: replay each log entry ``frequency``
        times (raw traffic) instead of once (distinct-query set).
    timeout:
        Client-side socket timeout per request, in seconds.
    """
    from repro.service.client import ServiceClient

    texts: list[str] = []
    if isinstance(workload, QueryLog):
        for entry in workload:
            repeats = entry.frequency if repeat_frequencies else 1
            text = (
                entry.query if isinstance(entry.query, str)
                else repr(entry.query)
            )
            texts.extend([text] * repeats)
    else:
        texts = [
            query if isinstance(query, str) else repr(query)
            for query in workload
        ]

    statuses: dict[int, int] = {}
    latencies: list[float] = []
    with ServiceClient(url=url, timeout=timeout) as client:
        before = client.stats()
        started = time.perf_counter()
        for text in texts:
            sent = time.perf_counter()
            reply = client.cite(text)
            latencies.append((time.perf_counter() - sent) * 1000.0)
            statuses[reply.status] = statuses.get(reply.status, 0) + 1
        elapsed = time.perf_counter() - started
        after = client.stats()

    def delta(*path: str) -> int:
        return _counter(after, *path) - _counter(before, *path)

    return ReplayReport(
        queries_run=len(texts),
        elapsed_seconds=elapsed,
        statuses=statuses,
        mean_latency_ms=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        max_latency_ms=max(latencies, default=0.0),
        plan_hits=delta("engine", "plan_cache", "hits"),
        plan_misses=delta("engine", "plan_cache", "misses"),
        rewriting_hits=delta("engine", "rewriting_cache", "hits"),
        rewriting_misses=delta("engine", "rewriting_cache", "misses"),
        subplan_hits=delta("engine", "subplan_memo", "hits"),
        subplan_misses=delta("engine", "subplan_memo", "misses"),
        batches_executed=delta(
            "service", "batching", "batches_executed"
        ),
    )
