"""Run ``repro serve`` with a span around each layer's public functions.

Usage (``src`` on ``PYTHONPATH``)::

    python benchmarks/perf/traced_serve.py TRACE_FILE serve --db P --port 0

Before handing the remaining arguments to ``repro.cli.main``, the
launcher wraps the functions in :data:`TRACED`; the server itself is
unmodified.  Each call records a span ``[id, layer, name, start, end,
parent, root, thread, size]`` (``time.monotonic`` seconds, so the load
generator can window spans with its own clock).  A thread-local stack
links each span to its caller: lane jobs run on ``asyncio.to_thread``
workers, so a root span is one lane job and ``root`` groups its spans.
``size`` is the batch size of ``CitationEngine.cite_batch`` roots.
Spans stay in memory and are written to ``TRACE_FILE`` once the server
has drained on SIGTERM.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from typing import Any

#: (module, attribute path, layer).  ``citation.order`` functions and
#: ``evaluate_with_bindings`` are wrapped as bound in the generator
#: module, the analysis functions as bound in the server module;
#: ``RewritingEngine.rewrite`` sits behind the rewriting cache, so it
#: sees misses only.
TRACED = (
    ("repro.service.server", "analyze_query", "service.server"),
    ("repro.service.server", "analyze_union", "service.server"),
    ("repro.rewriting.engine", "RewritingEngine.rewrite",
     "rewriting.engine"),
    ("repro.cq.plan", "QueryPlanner.plan", "cq.plan"),
    ("repro.citation.generator", "evaluate_with_bindings", "cq.evaluation"),
    ("repro.views.registry", "ViewRegistry.materialize", "views.registry"),
    ("repro.views.citation_view", "CitationView.citation_for",
     "views.citation_view"),
    ("repro.citation.generator", "normal_form", "citation.order"),
    ("repro.citation.generator", "best_polynomials", "citation.order"),
    ("repro.citation.generator", "absorbing_sum", "citation.order"),
    ("repro.citation.generator", "CitationEngine.cite_batch",
     "citation.generator"),
    ("repro.citation.generator", "CitationEngine.cite_union",
     "citation.generator"),
    ("repro.relational.database", "Database.insert_all",
     "relational.database"),
    ("repro.relational.database", "Database.delete", "relational.database"),
)
#: The record-level combiner tables; every entry is wrapped.
COMBINER_TABLES = (
    "DOT_INTERPRETATIONS", "PLUS_INTERPRETATIONS", "AGG_INTERPRETATIONS",
)
LAYERS = (
    *dict.fromkeys(layer for __, __, layer in TRACED), "citation.combiners",
)


class Tracer:
    """In-memory span recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, name: str, fn: Callable[..., Any],
             sized: bool = False) -> Callable[..., Any]:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, root = stack[-1] if stack else (0, span_id)
            stack.append((span_id, root))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append([
                    span_id, layer, name, start, end, parent, root,
                    threading.get_ident(), len(args[1]) if sized else 1,
                ])

        return traced


def install(tracer: Tracer) -> None:
    """Replace every function in :data:`TRACED` and every combiner with
    a traced wrapper."""
    import importlib

    for module_name, path, layer in TRACED:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(
            layer, path, getattr(owner, attr),
            sized=path == "CitationEngine.cite_batch",
        ))
    combiners = importlib.import_module("repro.citation.combiners")
    for table_name in COMBINER_TABLES:
        table = getattr(combiners, table_name)
        for key, fn in table.items():
            table[key] = tracer.wrap(
                "citation.combiners", f"{table_name}[{key}]", fn
            )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    trace_file, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    status = repro_main(serve_args)
    with open(trace_file, "w") as handle:
        json.dump({"spans": tracer.spans}, handle, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
