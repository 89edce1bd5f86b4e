"""The ``RL1xx`` rule implementations.

Each rule is a visitor pass over one file's AST.  Rules are
deliberately narrow: they encode *this repository's* conventions (the
ones ARCHITECTURE.md's concurrency model documents and the runtime
sanitizer enforces dynamically), not general Python style — ruff owns
that.  Codes are stable: tooling and suppressions may rely on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: Database/engine mutators that must go through the engine lane in
#: service code (RL101).
MUTATOR_NAMES = frozenset({
    "insert",
    "insert_all",
    "insert_batch",
    "insert_many",
    "delete",
    "invalidate_data",
    "refresh",
})

#: Receiver names that identify the shared engine/database state.
ENGINE_RECEIVERS = frozenset({"engine", "db", "database"})

#: Awaitable lane/engine entry points whose result must not be
#: discarded (RL103).
MUST_USE_NAMES = frozenset({
    "submit",
    "submit_cite",
    "wait_bounded",
})

#: Internal storage attributes of the relational layer (RL104).
STORAGE_INTERNAL_NAMES = frozenset({
    "_rows",
    "_indexes",
    "_sorted_indexes",
    "_composite_indexes",
    "_key_index",
    "_instances",
})

#: Attribute-name fragments that mark a dict as a cache (RL102).
CACHE_NAME_FRAGMENTS = ("cache", "memo")

#: Lock constructors (RL106); inside the ``repro`` package only the
#: sanitizer may build one.
LOCK_NAMES = frozenset({"Lock", "RLock"})


@dataclass(frozen=True)
class LintFinding:
    """One rule violation: stable code, message, and location."""

    code: str
    message: str
    path: Path
    line: int

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _receiver_names(node: ast.expr) -> set[str]:
    """Every bare name in an attribute chain (``a.b.c`` -> {a, b, c})."""
    names: set[str] = set()
    while isinstance(node, ast.Attribute):
        names.add(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.add(node.id)
    return names


def _called_name(func: ast.expr) -> str | None:
    """``f`` for calls of ``f(...)`` and ``m.f(...)``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_dict_constructor(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "OrderedDict"} and not node.args
    return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path) -> None:
        self.path = path
        self.findings: list[LintFinding] = []
        #: Stack of enclosing function nodes (innermost last).
        self._functions: list[ast.AST] = []
        self._in_service = "service" in path.parts
        self._in_package = "repro" in path.parts[:-1]

    def _flag(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            LintFinding(code, message, self.path, node.lineno)
        )

    # -- function nesting ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    # -- RL101: service mutations outside the lane --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._in_service
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_NAMES
            and self._functions
            and isinstance(self._functions[-1], ast.AsyncFunctionDef)
            and _receiver_names(node.func.value) & ENGINE_RECEIVERS
        ):
            self._flag(
                "RL101",
                f"engine/database mutation `{node.func.attr}` called "
                "directly from async service code; queue it as an "
                "engine-lane job (a sync closure passed to "
                "`lane.submit`) so writes stay serialized with reads",
                node,
            )
        if (
            self._in_package
            and self.path.name != "sanitizer.py"
            and _called_name(node.func) in LOCK_NAMES
        ):
            self._flag(
                "RL106",
                f"`{_called_name(node.func)}()` constructed; the engine "
                "lane is the one serialization point for engine state, "
                "so code outside the sanitizer holds no locks",
                node,
            )
        self.generic_visit(node)

    # -- RL102: hand-rolled cache construction ------------------------------

    def _check_cache_assign(
        self, targets: list[ast.expr], value: ast.expr | None,
        node: ast.AST,
    ) -> None:
        if value is None or not _is_dict_constructor(value):
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and any(
                    part in target.attr.lower()
                    for part in CACHE_NAME_FRAGMENTS
                )
            ):
                self._flag(
                    "RL102",
                    f"cache attribute `{target.attr}` built as a plain "
                    "dict; construct it as a repro.util.lru.VersionedLRU "
                    "so its bound, version checks, counters and the "
                    "sanitizer's stale-cache hook are the shared ones",
                    node,
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_cache_assign(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_cache_assign([node.target], node.value, node)
        self.generic_visit(node)

    # -- RL103: discarded lane submissions ----------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in MUST_USE_NAMES
        ):
            self._flag(
                "RL103",
                f"result of `{value.func.attr}(...)` discarded; lane "
                "submissions and async engine calls return a "
                "future/coroutine that must be awaited (or stored) or "
                "the job's outcome — including its errors — is lost",
                node,
            )
        self.generic_visit(node)

    # -- RL104: storage-internal access outside relational/ ------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in STORAGE_INTERNAL_NAMES
            and "relational" not in self.path.parts
            and not (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            )
        ):
            self._flag(
                "RL104",
                f"storage-internal attribute `{node.attr}` accessed "
                "outside the relational layer; use the public "
                "lookup API so storage refactors (and the "
                "sanitizer's mutation hooks) stay airtight",
                node,
            )
        self.generic_visit(node)

    # -- RL105: bare / swallowing excepts ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                "RL105",
                "bare `except:` catches KeyboardInterrupt and "
                "SystemExit; name the exceptions (engine errors derive "
                "from ReproError)",
                node,
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in {"Exception", "BaseException"}
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)
        ):
            self._flag(
                "RL105",
                f"`except {node.type.id}: pass` silently swallows "
                "engine failures; handle or at least log them",
                node,
            )
        self.generic_visit(node)


def lint_file(path: Path) -> list[LintFinding]:
    """Run every rule over one Python file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(
                "RL100",
                f"file does not parse: {exc.msg}",
                path,
                exc.lineno or 1,
            )
        ]
    linter = _FileLinter(path)
    linter.visit(tree)
    return linter.findings


def run_lint(paths: list[Path]) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(lint_file(file))
    return findings
