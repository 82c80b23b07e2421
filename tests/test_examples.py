"""Run what the docs show: every ``examples/`` script and the package doctest.

CI lints ``examples/`` but nothing executed them, so a renamed export (or a
quick start that stopped being true) would only surface in a user's shell.
"""

from __future__ import annotations

import doctest
import runpy
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()  # each script narrates what it did


def test_package_quick_start_doctest():
    results = doctest.testmod(repro)
    assert results.attempted >= 5 and results.failed == 0
