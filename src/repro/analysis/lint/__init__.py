"""Repo-invariant lint: AST rules for the conventions ruff can't see.

The concurrency sanitizer (:mod:`repro.analysis.sanitizer`) proves the
lane/cache discipline at runtime; this package enforces the same
conventions *statically*, with stable ``RL1xx`` codes, so violations
fail CI before they ever run:

========  ==========================================================
RL101     engine/database mutation awaited directly in ``service/``
          async code instead of queued as an engine-lane job
RL102     cache- or memo-named attribute built as a plain dict
          instead of a :class:`~repro.util.lru.VersionedLRU`
RL103     lane submission / async engine call whose result is
          discarded (missing ``await`` — the job outcome is lost)
RL104     storage-internal attribute (``_rows``, index structures…)
          accessed outside the ``relational/`` layer
RL105     bare ``except:``, or a broad ``except`` that only ``pass``es
          (silently swallowing engine failures)
RL106     ``Lock()``/``RLock()`` constructed in the ``repro`` package
          outside the sanitizer (the engine lane is the one
          serialization point)
========  ==========================================================

Run it with ``tools/run_repro_lint.py <paths>`` (the CI lint job does,
alongside ruff) or ``repro analyze --lint``; each rule is self-tested
against a fixture file it must flag.
"""

from __future__ import annotations

from repro.analysis.lint.rules import LintFinding, lint_file, run_lint

__all__ = ["LintFinding", "lint_file", "run_lint"]
