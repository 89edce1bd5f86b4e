"""A blocking stdlib client for the citation service.

Used by the workload replay mode
(:func:`repro.workload.runner.replay_workload`), the service tests, the
``examples/citation_service.py`` walk-through, and the service
benchmark.  One :class:`ServiceClient` holds one keep-alive
:class:`http.client.HTTPConnection`; it is **not** thread-safe — give
each client thread its own instance (connections are cheap).
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ReproError


class ServiceClientError(ReproError):
    """The service could not be reached or spoke unexpectedly."""


@dataclass
class ServiceReply:
    """One response: status code, decoded JSON, and the raw body bytes
    (the byte-identity checks compare ``body`` directly)."""

    status: int
    data: Any
    body: bytes
    headers: dict[str, str]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServiceClient:
    """Blocking JSON-over-HTTP client for one citation service."""

    def __init__(
        self,
        url: str | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float = 60.0,
    ) -> None:
        if url is not None:
            parts = urlsplit(url if "//" in url else f"http://{url}")
            host = parts.hostname or "127.0.0.1"
            port = parts.port or 80
        if host is None or port is None:
            raise ServiceClientError(
                "give either url or host and port"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> ServiceReply:
        body = None
        headers = {}
        if isinstance(payload, bytes):
            # Raw bodies bypass JSON encoding (edge-case testing).
            body = payload
            headers["Content-Type"] = "application/json"
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            connection = self._connect()
            try:
                connection.request(method, path, body=body,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                # A dropped keep-alive connection (server drain, idle
                # close) gets one fresh-connection retry.
                self.close()
                if attempt == 2:
                    raise ServiceClientError(
                        f"{method} {path} failed: {exc}"
                    ) from exc
        data: Any = None
        if raw:
            try:
                data = json.loads(raw.decode("utf-8"))
            except ValueError:
                data = None
        return ServiceReply(
            status=response.status,
            data=data,
            body=raw,
            headers={k.lower(): v for k, v in response.getheaders()},
        )

    def post(self, path: str, payload: Any) -> ServiceReply:
        return self.request("POST", path, payload)

    def get(self, path: str) -> ServiceReply:
        return self.request("GET", path)

    # ------------------------------------------------------------------
    # endpoint conveniences
    # ------------------------------------------------------------------

    def cite(self, query: str, sql: bool = False,
             include_tuples: bool = False) -> ServiceReply:
        payload: dict[str, Any] = {"query": query}
        if sql:
            payload["sql"] = True
        if include_tuples:
            payload["include_tuples"] = True
        return self.post("/cite", payload)

    def cite_batch(self, queries: list[str]) -> ServiceReply:
        return self.post("/cite-batch", {"queries": queries})

    def plan(self, query: str, sql: bool = False) -> ServiceReply:
        payload: dict[str, Any] = {"query": query}
        if sql:
            payload["sql"] = True
        return self.post("/plan", payload)

    def analyze(self, query: str, sql: bool = False) -> ServiceReply:
        payload: dict[str, Any] = {"query": query}
        if sql:
            payload["sql"] = True
        return self.post("/analyze", payload)

    def insert(self, relation: str,
               rows: list[list[Any]]) -> ServiceReply:
        return self.post("/insert", {"relation": relation, "rows": rows})

    def delete_rows(self, relation: str,
                    rows: list[list[Any]]) -> ServiceReply:
        return self.post("/delete", {"relation": relation, "rows": rows})

    def stats(self) -> dict[str, Any]:
        reply = self.get("/stats")
        if not reply.ok or not isinstance(reply.data, dict):
            raise ServiceClientError(
                f"GET /stats failed with status {reply.status}"
            )
        return reply.data

