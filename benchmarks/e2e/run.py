"""Entry point for ``BENCHMARK.json``'s command: puts the checkout's root and
``src/`` on the path (in place of this directory, whose module names are not
meant to be importable top-level) and hands over to :mod:`cli`."""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[0:1] = [str(root), str(root / "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main())
