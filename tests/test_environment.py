"""No module under ``src/`` reads the process environment.

The engine has no user-settable switch: it decides from what it measures, and
tests force a decision through ``repro.testing``.  An ``ast`` scan finds
every ``os.environ`` / ``os.getenv`` reference, bare or imported by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads():
    """``path:line`` of every reference to an environment reader under ``src/``."""
    sites = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if READERS.intersection(names):
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


def test_no_source_module_reads_the_environment():
    assert environment_reads() == []
