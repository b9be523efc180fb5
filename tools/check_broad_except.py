#!/usr/bin/env python3
"""Lint: no broad ``except`` in ``src/repro`` outside the known boundaries.

A handler that catches everything — bare ``except:``, ``except
Exception`` or ``except BaseException``, alone or in a tuple — turns a
programming error into a modeled outcome (a failed migration, a denied
lease) and hides it.  Platform failures have a taxonomy
(:mod:`repro.rfaas.errors`, ``AllocationError``); handlers catch those.

Only the functions in :data:`ALLOWED` may catch broadly, because each
is a boundary that must hand *any* exception on, not decide it.  An
allowed function that no longer catches broadly is reported too, so
the list never outlives the code.

Run standalone or through the unified entry point::

    python tools/check_broad_except.py
    python -m tools.checks broad-except
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"

BROAD = {"Exception", "BaseException"}

#: (path under src/repro, qualified function name) -> why it may catch all.
ALLOWED = {
    ("sim/engine.py", "Process._resume_event"):
        "the engine fails the process's event with whatever its generator raised",
    ("telemetry/tracer.py", "Tracer.span"):
        "records the error type on the span, then re-raises",
    ("shard/batch.py", "ShardBatcher._run"):
        "the op boundary: any apply error fails that op, not the batcher",
    ("sweep.py", "_execute_task"):
        "the worker boundary: the parent re-raises with the formatted traceback",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        (isinstance(n, ast.Name) and n.id in BROAD)
        or (isinstance(n, ast.Attribute) and n.attr in BROAD)
        for n in names
    )


class _Finder(ast.NodeVisitor):
    """Collects (qualified function name, line) of every broad handler."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_broad(node):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def violations(root: pathlib.Path = SOURCE,
               allowed: dict | None = None) -> list[str]:
    """One line per broad handler outside ``allowed`` and per stale entry."""
    allowed = ALLOWED if allowed is None else allowed
    problems: list[str] = []
    seen: set[tuple[str, str]] = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        finder = _Finder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=rel))
        for function, line in finder.found:
            if (rel, function) in allowed:
                seen.add((rel, function))
                continue
            problems.append(
                f"{rel}:{line}: broad except in {function} — catch the "
                f"specific platform errors, or add a boundary to "
                f"tools/check_broad_except.py ALLOWED"
            )
    for rel, function in sorted(set(allowed) - seen):
        problems.append(f"{rel}: allowed boundary {function} has no broad "
                        f"except any more — drop it from ALLOWED")
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked broad except handlers, {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
