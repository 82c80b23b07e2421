"""Every module-level name and every method defined under ``src/`` is used.

A module-level name counts as used when it appears, as a whole identifier,
anywhere in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` outside
the definitions of that name.  A method counts as used only when an
attribute access ``.name`` or a quoted ``"name"`` (``getattr``) does: a bare
identifier is a module-level function or a local of the same name, not the
method.  Methods of one name on different classes still share one verdict.
Re-exports do not count: a package's ``from .x import name`` lines and
``__all__`` strings keep a name public, not alive.  Lines are matched whole,
comments included, because f-strings may hold ``#``.  Dunder names are
called by the interpreter and are skipped.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: what names a method: an attribute access, or the quoted name ``getattr`` takes
ATTRIBUTE = re.compile(r"\.\s*([A-Za-z_][A-Za-z0-9_]*)|[\"']([A-Za-z_][A-Za-z0-9_]*)[\"']")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: name (``Class.method`` for a method) → why it stays although nothing references it (one line each)
ALLOWED: dict = {}


def _definitions(tree: ast.Module):
    """``(name, class, node)`` for each module-level name (class ``None``) and each method."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node.name, None, node
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, node.name, item) for item in node.body if isinstance(item, DEFINITION[:2]))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, None, node


def _reexport_lines(path: Path, tree: ast.Module):
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if is_all or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom) and node.level):
            yield from range(node.lineno, node.end_lineno + 1)


def unreferenced_names():
    """``{name: [path:line, ...]}`` for every ``src/`` definition nothing references
    (``Class.method`` for a method)."""
    paths = [p for folder in ("src", "tests", "benchmarks", "examples") for p in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    spans = {}  # name → [(path, first line, last line, class)] of its definitions, decorators included
    for path, tree in trees.items():
        if ROOT / "src" in path.parents:
            for name, owner, node in _definitions(tree):
                if not name.startswith("__"):
                    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                    spans.setdefault(name, []).append((path, first, node.end_lineno, owner))
    methods = {name for name, sites in spans.items() if any(owner for *_, owner in sites)}
    bare, attribute = set(), set()  # names referenced as identifiers, and as attributes or quoted
    for path, tree in trees.items():
        skipped = set(_reexport_lines(path, tree))
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if lineno in skipped:
                continue
            found = (
                (set(IDENTIFIER.findall(line)) & spans.keys()) - bare,
                {a or q for a, q in ATTRIBUTE.findall(line)} & methods - attribute,
            )
            for names, referenced in zip(found, (bare, attribute)):
                for name in names:
                    if not any(path == where and first <= lineno <= last for where, first, last, _ in spans[name]):
                        referenced.add(name)
    unreferenced = {}
    for name, sites in sorted(spans.items()):
        for where, first, _, owner in sites:
            if name not in (attribute if owner else bare):
                unreferenced.setdefault(f"{owner}.{name}" if owner else name, []).append(
                    f"{where.relative_to(ROOT)}:{first}"
                )
    return unreferenced


def test_every_source_name_is_referenced():
    unreferenced = unreferenced_names()
    dead = {name: sites for name, sites in unreferenced.items() if name not in ALLOWED}
    assert not dead, f"defined under src/ but referenced nowhere (delete, or allowlist with a reason): {dead}"
    assert set(ALLOWED) <= set(unreferenced), "an allowlisted name is referenced now: drop it from ALLOWED"
