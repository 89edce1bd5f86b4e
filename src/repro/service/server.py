"""The asyncio citation service: one warm engine, many clients.

``repro serve`` starts a long-running HTTP front end over a single
shared :class:`~repro.citation.generator.CitationEngine`, so the
expensive warm state — plan cache, rewriting cache, sub-plan memo,
secondary/composite indexes, relation statistics — amortizes across
*all* traffic instead of dying with every consumer process.  Endpoints
(all JSON over HTTP/1.1; see ``docs/service.md`` for schemas):

========================  ====================================================
``POST /cite``            cite one query, conjunctive or union; requests
                          queued together are micro-batched into one
                          ``cite_batch`` across clients
``POST /cite-batch``      cite a list of queries as one shared batch
``POST /plan``            EXPLAIN + QA diagnostics as JSON
``POST /analyze``         QA diagnostics only
``POST /insert``          insert rows; the engine maintains its views and
                          records per row
``POST /delete``          delete rows; likewise
``GET /stats``            cache hit/miss/eviction counters, sub-plan memo
                          reservations, latency histograms
``GET /healthz``          liveness (``{"status": "ok"}``)
========================  ====================================================

Robustness is first-class: per-request timeouts (504 — the job keeps
running on the lane so batch-mates are unaffected), a bounded admission
queue with backpressure (429 + ``Retry-After``), payload limits (413),
and graceful drain on SIGTERM (stop accepting, finish in-flight work,
then exit 0).  Queries that static analysis proves empty are refused
with 422 — the HTTP rendering of the CLI's exit status 3.  That needs
the query alone, so a ``/cite`` is one lane job; only a refused query
pays one, for the database-backed findings its 422 lists.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.analysis import (
    analyze_query,
    analyze_union,
    check_relations,
    has_errors,
)
from repro.citation.generator import CitationEngine, CitationResult
from repro.cq.subplan import SubplanMemo
from repro.cq.ucq import UnionQuery, parse_datalog
from repro.errors import ReproError
from repro.service.batcher import (
    AdmissionFull,
    EngineLane,
    LaneClosed,
    wait_bounded,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    HttpRequest,
    PayloadTooLarge,
    ProtocolError,
    read_request,
    render_response,
)

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Operational knobs for :class:`CitationService`.

    Attributes
    ----------
    host / port:
        Bind address; port 0 binds an ephemeral port (the bound port is
        readable as :attr:`CitationService.port` after start — tests and
        the smoke harness use this).
    request_timeout_s:
        Deadline per request, measured over the engine work.  Expiry
        answers 504; the underlying job still completes on the lane.
    max_body_bytes:
        Request-body limit; larger uploads are refused with 413 before
        the body is buffered.
    max_pending:
        Admission-queue bound (queued + running engine jobs); beyond it
        requests are rejected with 429 + ``Retry-After``.
    max_batch:
        Micro-batching: the largest cross-client coalesced batch, made
        of the cite jobs queued behind the one the lane picks up (see
        :class:`~repro.service.batcher.EngineLane`).
    retry_after_s:
        The ``Retry-After`` hint on 429 responses.
    drain_timeout_s:
        How long graceful shutdown waits for in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 8747
    request_timeout_s: float = 30.0
    max_body_bytes: int = 1_000_000
    max_pending: int = 64
    max_batch: int = 16
    retry_after_s: float = 1.0
    drain_timeout_s: float = 10.0


class _HttpError(Exception):
    """Internal: an error response with a status and JSON payload."""

    def __init__(self, status: int, payload: dict[str, Any],
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


def _analyze(query: Any, db: Any = None) -> list[Any]:
    """The QA findings of a CQ or union; ``db`` adds warnings only."""
    if isinstance(query, UnionQuery):
        return analyze_union(query, db)
    return analyze_query(query, db)


def _diagnostic_json(diagnostics: list[Any]) -> list[dict[str, Any]]:
    return [
        {
            "code": finding.code,
            "severity": finding.severity,
            "message": finding.describe(),
        }
        for finding in diagnostics
    ]


class _Connection:
    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False


class CitationService:
    """The HTTP front end over one shared warm :class:`CitationEngine`."""

    def __init__(
        self,
        engine: CitationEngine,
        config: ServiceConfig | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.lane = EngineLane(
            engine,
            max_pending=self.config.max_pending,
            max_batch=self.config.max_batch,
            on_batch=self.metrics.observe_batch,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        self.port: int | None = None
        self._routes = {
            ("POST", "/cite"): self._handle_cite,
            ("POST", "/cite-batch"): self._handle_cite_batch,
            ("POST", "/plan"): self._handle_plan,
            ("POST", "/analyze"): self._handle_analyze,
            ("POST", "/insert"): self._handle_insert,
            ("POST", "/delete"): self._handle_delete,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/healthz"): self._handle_healthz,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self.lane.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else None
        logger.info(json.dumps({
            "event": "listening",
            "host": self.config.host,
            "port": self.port,
        }))

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, stop lane."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        logger.info(json.dumps({"event": "draining"}))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in read_request; closing their
        # transports releases them.  Busy connections finish their
        # current response first (the handler re-checks _draining).
        for connection in list(self._connections):
            if not connection.busy:
                connection.writer.close()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            connection.writer.close()
        await self.lane.stop()
        self._stopped.set()
        logger.info(json.dumps({"event": "stopped"}))

    async def serve_until_signal(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C surfaces as KeyboardInterrupt
        try:
            await stop.wait()
        finally:
            await self.shutdown()

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_accepted += 1
        connection = _Connection(writer)
        self._connections.add(connection)
        try:
            while not self._draining:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    self.metrics.protocol_errors += 1
                    writer.write(render_response(
                        exc.status, {"error": str(exc)}, keep_alive=False
                    ))
                    await writer.drain()
                    return
                except (ConnectionError, asyncio.CancelledError):
                    return
                if request is None:
                    return
                connection.busy = True
                try:
                    keep_alive = await self._respond(request, writer)
                finally:
                    connection.busy = False
                if not keep_alive:
                    return
        finally:
            self._connections.discard(connection)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _respond(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        started = time.perf_counter()
        endpoint = f"{request.method} {request.path}"
        headers: dict[str, str] = {}
        try:
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                if any(path == request.path
                       for __, path in self._routes):
                    raise _HttpError(405, {
                        "error": f"method {request.method} not allowed "
                                 f"on {request.path}",
                    })
                raise _HttpError(404, {
                    "error": f"unknown endpoint {request.path}",
                    "endpoints": sorted(
                        f"{method} {path}"
                        for method, path in self._routes
                    ),
                })
            status, payload = await handler(request)
        except _HttpError as exc:
            status, payload, headers = exc.status, exc.payload, exc.headers
        except (AdmissionFull, LaneClosed) as exc:
            retry_after = self.config.retry_after_s
            status, payload = 429 if isinstance(exc, AdmissionFull) else 503, {
                "error": str(exc) or exc.__class__.__name__,
            }
            headers = {"Retry-After": f"{retry_after:g}"}
        except asyncio.TimeoutError:
            status, payload = 504, {
                "error": "request timed out after "
                         f"{self.config.request_timeout_s:g}s; "
                         "the work completes server-side",
            }
        except ProtocolError as exc:
            self.metrics.protocol_errors += 1
            status, payload = exc.status, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {
                "error": str(exc), "kind": exc.__class__.__name__,
            }
        except Exception as exc:  # noqa: B902 - service must not die
            logger.exception("internal error on %s", endpoint)
            status, payload = 500, {
                "error": f"internal error: {exc.__class__.__name__}",
            }
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        keep_alive = request.keep_alive and not self._draining
        self.metrics.observe_request(endpoint, status, elapsed_ms)
        if logger.isEnabledFor(logging.INFO):
            logger.info(json.dumps({
                "event": "request",
                "method": request.method,
                "path": request.path,
                "status": status,
                "ms": round(elapsed_ms, 2),
                "outstanding": self.lane.outstanding,
            }))
        try:
            writer.write(render_response(
                status, payload, extra_headers=headers,
                keep_alive=keep_alive,
            ))
            await writer.drain()
        except ConnectionError:
            return False
        return keep_alive

    # ------------------------------------------------------------------
    # request helpers
    # ------------------------------------------------------------------

    def _body_object(self, request: HttpRequest) -> dict[str, Any]:
        body = request.json()
        if not isinstance(body, dict):
            raise _HttpError(400, {
                "error": "request body must be a JSON object",
            })
        return body

    def _query_text(self, body: dict[str, Any]) -> str:
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise _HttpError(400, {
                "error": 'body must carry a non-empty "query" string',
            })
        return text

    def _parse(self, text: str, sql: bool) -> Any:
        """Parse request text into a CQ or UnionQuery (400 on errors)."""
        if sql:
            from repro.cq.sql_parser import parse_sql

            return parse_sql(text, self.engine.db.schema)
        return parse_datalog(text)

    async def _bounded(self, future: "asyncio.Future[Any]") -> Any:
        return await wait_bounded(future, self.config.request_timeout_s)

    async def _refused(
        self, queries: Sequence[Any]
    ) -> list[tuple[int, list[Any]]]:
        """The provably empty queries: each one's index and findings.

        Refusal, like a 400 for a relation the schema lacks, needs no
        data, so it is decided on the event loop.  One lane job adds the
        refused queries' database-backed warnings to their findings."""
        db = self.engine.db
        refused = []
        for index, query in enumerate(queries):
            check_relations(query, db.schema)
            if has_errors(_analyze(query)):
                refused.append(index)
        if not refused:
            return []
        found = await self._bounded(self.lane.submit(
            lambda: [_analyze(queries[index], db) for index in refused]
        ))
        return list(zip(refused, found))

    # ------------------------------------------------------------------
    # endpoint handlers
    # ------------------------------------------------------------------

    async def _handle_cite(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        body = self._body_object(request)
        query = self._parse(self._query_text(body),
                            sql=bool(body.get("sql")))
        for __, diagnostics in await self._refused([query]):
            # HTTP 422: the request parses but can provably never return
            # a row — the service rendering of CLI exit status 3.
            raise _HttpError(422, {
                "error": "query provably returns no rows",
                "diagnostics": _diagnostic_json(diagnostics),
            })
        result: CitationResult = await self._bounded(
            self.lane.submit_cite(query)
        )
        payload = result.citation()
        if body.get("include_tuples"):
            payload["tuples"] = [
                {"tuple": list(tc.output), "citations": tc.records}
                for tc in result.tuples.values()
            ]
        return 200, payload

    async def _handle_cite_batch(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        body = self._body_object(request)
        texts = body.get("queries")
        if (
            not isinstance(texts, list) or not texts
            or not all(isinstance(text, str) for text in texts)
        ):
            raise _HttpError(400, {
                "error": 'body must carry a non-empty "queries" list '
                         "of Datalog strings",
            })
        queries = [self._parse(text, sql=False) for text in texts]
        empty = [
            {
                "index": index,
                "query": texts[index],
                "diagnostics": _diagnostic_json(diagnostics),
            }
            for index, diagnostics in await self._refused(queries)
        ]
        if empty:
            raise _HttpError(422, {
                "error": f"{len(empty)} quer"
                         f"{'y' if len(empty) == 1 else 'ies'} provably "
                         "return(s) no rows",
                "queries": empty,
            })
        engine = self.engine
        results: list[CitationResult] = await self._bounded(
            self.lane.submit(lambda: engine.cite_batch(queries))
        )
        return 200, {
            "count": len(results),
            "citations": [result.citation() for result in results],
        }

    async def _handle_plan(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        body = self._body_object(request)
        query = self._parse(self._query_text(body),
                            sql=bool(body.get("sql")))
        engine = self.engine

        def job() -> tuple[list[Any], str]:
            diagnostics = _analyze(query, engine.db)
            virtual = engine.materialized_views()
            if isinstance(query, UnionQuery):
                # Shared-prefix lines come from a throwaway memo: an
                # EXPLAIN must not reserve prefixes in the engine's.
                return diagnostics, query.explain(
                    engine.db, engine.planner, SubplanMemo(), virtual,
                    diagnostics,
                )
            return diagnostics, engine.planner.plan(query, virtual).explain(
                diagnostics=diagnostics
            )

        diagnostics, explain_text = await self._bounded(self.lane.submit(job))
        payload = {
            "explain": explain_text,
            "diagnostics": _diagnostic_json(diagnostics),
        }
        if has_errors(diagnostics):
            payload["error"] = "query provably returns no rows"
            return 422, payload
        return 200, payload

    async def _handle_analyze(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        body = self._body_object(request)
        query = self._parse(self._query_text(body),
                            sql=bool(body.get("sql")))
        db = self.engine.db
        diagnostics = await self._bounded(
            self.lane.submit(lambda: _analyze(query, db))
        )
        provably_empty = has_errors(diagnostics)
        payload = {
            "diagnostics": _diagnostic_json(diagnostics),
            "provably_empty": provably_empty,
        }
        return (422 if provably_empty else 200), payload

    def _mutation_rows(
        self, request: HttpRequest
    ) -> tuple[str, list[list[Any]]]:
        body = self._body_object(request)
        relation = body.get("relation")
        rows = body.get("rows")
        if not isinstance(relation, str) or not relation:
            raise _HttpError(400, {
                "error": 'body must carry a "relation" name',
            })
        if (
            not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) for row in rows)
        ):
            raise _HttpError(400, {
                "error": 'body must carry a non-empty "rows" list of '
                         "value lists",
            })
        if relation not in self.engine.db.schema:
            raise _HttpError(400, {
                "error": f"unknown relation {relation!r}",
            })
        return relation, rows

    async def _handle_insert(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        relation, rows = self._mutation_rows(request)
        engine = self.engine

        def job() -> tuple[int, int]:
            inserted = engine.db.insert_all(
                relation, [tuple(row) for row in rows]
            )
            return len(inserted), engine.db.stats_version

        count, version = await self._bounded(self.lane.submit(job))
        return 200, {
            "inserted": count,
            "relation": relation,
            "stats_version": version,
        }

    async def _handle_delete(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        relation, rows = self._mutation_rows(request)
        engine = self.engine

        def job() -> tuple[int, int]:
            deleted = sum(
                1 for row in rows if engine.db.delete(relation, *row)
            )
            return deleted, engine.db.stats_version

        count, version = await self._bounded(self.lane.submit(job))
        return 200, {
            "deleted": count,
            "relation": relation,
            "stats_version": version,
        }

    async def _handle_stats(
        self, __request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        return 200, self.stats()

    async def _handle_healthz(
        self, __request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        return 200, {
            "status": "draining" if self._draining else "ok",
        }

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: service + engine-cache observability."""
        engine = self.engine
        return {
            "service": self.metrics.snapshot(),
            "admission": {
                "max_pending": self.config.max_pending,
                "outstanding": self.lane.outstanding,
                "rejected": self.metrics.rejected,
            },
            "engine": {
                "stats_version": engine.db.stats_version,
                "policy": engine.policy.name,
                "plan_cache": engine.planner.counters(),
                "rewriting_cache": engine.rewriting_engine.counters(),
                "subplan_memo": engine.subplan_memo.counters(),
                "record_cache": engine.record_cache.counters(),
                "absorption_memo": engine.absorption_memo.counters(),
            },
        }


class ServiceThread:
    """Run a :class:`CitationService` on a background thread's loop.

    The in-process deployment used by tests, the example, and the
    benchmark: the service runs on its own event loop in a daemon
    thread; the caller keeps a plain blocking view of it.

    >>> with ServiceThread(engine) as handle:          # doctest: +SKIP
    ...     client = ServiceClient(url=handle.base_url)
    ...     client.cite('Q(N) :- Family(F, N, Ty), Ty = "gpcr"')
    """

    def __init__(
        self,
        engine: CitationEngine,
        config: ServiceConfig | None = None,
        startup_timeout_s: float = 10.0,
    ) -> None:
        # Ephemeral port by default: parallel test runs must not collide.
        self.config = config or ServiceConfig(port=0)
        self.engine = engine
        self.startup_timeout_s = startup_timeout_s
        self.service: CitationService | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout_s):
            raise RuntimeError("service failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error!r}"
            ) from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            loop, stop = self._loop, self._stop
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self.startup_timeout_s)
            self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup races
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = CitationService(self.engine, self.config)
        try:
            await self.service.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.port = self.service.port
        self._ready.set()
        await self._stop.wait()
        await self.service.shutdown()
