#!/usr/bin/env python
"""Lint: every imported name must be used in the module that imports it.

An unused import is dead surface: it hides what a module really depends
on, and it keeps a deleted name looking alive.  This checker walks the
source trees with :mod:`ast` (no imports, no side effects) and flags
every name an ``import`` or ``from ... import`` binds that no other
statement in the same module names.

* A name counts as used wherever it appears in the module, at any scope.
* A name read only inside a string annotation (``x: "Table"``,
  ``-> List["Table"]``) counts as used.
* ``__init__.py`` files are exempt: their imports are re-exports.
* ``from __future__ import ...`` and ``from m import *`` bind nothing
  to check.

Usage (from the repo root)::

    python scripts/check_imports.py            # lint src, tests, examples, scripts
    python scripts/check_imports.py path [...] # lint specific files or trees

Exit status 0 when clean, 1 with one line per unused import otherwise,
2 for a path that does not exist.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

#: Trees linted when no path is given, relative to the repo root.
DEFAULT_ROOTS = ("src", "tests", "examples", "scripts")


def _bindings(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(line, bound name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``.
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module mentions, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= _used_names(parsed)
    return used


def _files(paths: Iterable[Path]) -> Iterator[Path]:
    for root in paths:
        yield from [root] if root.is_file() else sorted(root.rglob("*.py"))


def check_paths(paths: Iterable[Path]) -> List[str]:
    """Lint ``paths``; returns one message per unused import."""
    problems: List[str] = []
    for path in _files(paths):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for lineno, name in _bindings(tree):
            if name not in used:
                problems.append(f"{path}:{lineno}: {name!r} imported but unused")
    return problems


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repo_root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or [repo_root / root for root in DEFAULT_ROOTS]
    for path in paths:
        if not path.exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2
    problems = check_paths(paths)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"OK: no unused imports in {sum(1 for _ in _files(paths))} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
