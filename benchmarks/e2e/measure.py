"""Percentiles, memory, and the span log the per-layer numbers are read from."""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

now = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``int((1 - q) * len)`` samples lie beyond it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanLog:
    """Spans around the calls the benchmark makes into each layer.

    A row is ``(name, start, end, parent, op)``: ``parent`` is the index of
    the span that caused this one (-1 for a root) and ``op`` the id shared by
    all spans of one query or commit.  Rows are kept in memory and written
    out once, after the run.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, int, int]] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        self.rows.append((name, start, end, parent, op))
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, parent: int = -1, op: int = -1) -> Iterator[None]:
        start = now()
        try:
            yield
        finally:
            self.add(name, start, now(), parent, op)

    def durations(self, name: str) -> List[float]:
        return [end - start for row_name, start, end, _, _ in self.rows if row_name == name]

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (seconds not covered by child spans, call count)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, Tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.rows):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start, child_end = max(child_start, reach), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - covered, calls + 1)
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.rows):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
