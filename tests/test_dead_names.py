"""Every module-level name and every method defined under ``src/`` is used.

A name counts as used when it appears, as a whole identifier, anywhere in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` outside its own
definition.  Re-exports do not count: a package's ``from .x import name``
lines and ``__all__`` strings keep a name public, not alive.  Lines are
matched whole, comments included, because f-strings may hold ``#``.
Dunder names are called by the interpreter and are skipped.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: name → why it stays although nothing references it (one line each)
ALLOWED: dict = {}


def _definitions(tree: ast.Module):
    """``(name, node)`` for each module-level name and each method."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item) for item in node.body if isinstance(item, DEFINITION[:2]))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reexport_lines(path: Path, tree: ast.Module):
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if is_all or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom) and node.level):
            yield from range(node.lineno, node.end_lineno + 1)


def unreferenced_names():
    """``{name: [path:line, ...]}`` for every ``src/`` definition nothing references."""
    paths = [p for folder in ("src", "tests", "benchmarks", "examples") for p in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    spans = {}  # name → [(path, first line, last line)] of its definitions, decorators included
    for path, tree in trees.items():
        if ROOT / "src" in path.parents:
            for name, node in _definitions(tree):
                if not name.startswith("__"):
                    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                    spans.setdefault(name, []).append((path, first, node.end_lineno))
    referenced = set()
    for path, tree in trees.items():
        skipped = set(_reexport_lines(path, tree))
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if lineno in skipped:
                continue
            for name in set(IDENTIFIER.findall(line)) & spans.keys() - referenced:
                if not any(path == where and first <= lineno <= last for where, first, last in spans[name]):
                    referenced.add(name)
    return {
        name: [f"{where.relative_to(ROOT)}:{first}" for where, first, _ in sites]
        for name, sites in sorted(spans.items())
        if name not in referenced
    }


def test_every_source_name_is_referenced():
    unreferenced = unreferenced_names()
    dead = {name: sites for name, sites in unreferenced.items() if name not in ALLOWED}
    assert not dead, f"defined under src/ but referenced nowhere (delete, or allowlist with a reason): {dead}"
    assert set(ALLOWED) <= set(unreferenced), "an allowlisted name is referenced now: drop it from ALLOWED"
