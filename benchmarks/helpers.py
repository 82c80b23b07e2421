"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one figure or quantitative claim of the
paper (each module's docstring says which).  The helpers here keep the
modules small: a standard way to print a report table (visible under
``pytest -s``), to attach the headline numbers to
``benchmark.extra_info`` (so they survive into pytest-benchmark's output even
without ``-s``), and to persist every run's headline numbers and timings as
machine-readable ``BENCH_<experiment>.json`` files so runs are comparable
with a plain diff (locally across checkouts, or via CI artifacts).

The JSON files land in ``benchmarks/out/`` (gitignored) by default; set
``BENCH_JSON_DIR`` to redirect them, e.g. to a CI artifact directory or to a
directory kept outside the tree for before/after comparisons.  Writes are
atomic per file; the merge assumes the usual single-process pytest run.

The *headline* experiments (the perf-regression gates: E16 kernels, E19
columnar, E20 observability overhead; E12, the paper's crossover with its
schema-vs-counting seconds) are additionally mirrored to the repository root
as committed baselines — ``BENCH_e12.json`` / ``BENCH_e16.json`` /
``BENCH_e19.json`` / ``BENCH_e20.json`` next to ROADMAP.md — so
every checkout carries the numbers its CI guards were last green against and
``git diff`` shows perf drift alongside the code that caused it.  The mirror
honors ``BENCH_JSON_DIR``: redirected runs still update only their own
output directory's copy of the file before it is mirrored.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.analysis import format_table

_EXPERIMENT_PATTERN = re.compile(r"e\d{2}")

#: experiments whose BENCH_*.json is mirrored to the repo root as a committed
#: baseline (the CI perf gates)
HEADLINE_EXPERIMENTS = frozenset(("e12", "e16", "e19", "e20"))

_REPO_ROOT = Path(__file__).resolve().parent.parent


def output_dir() -> Path:
    """Where the ``BENCH_*.json`` files are written."""
    configured = os.environ.get("BENCH_JSON_DIR")
    if configured:
        return Path(configured)
    return Path(__file__).resolve().parent / "out"


def experiment_tag(name: str) -> str:
    """Experiment id (``e01`` ... ``e14``) parsed from a test/benchmark name."""
    match = _EXPERIMENT_PATTERN.search(name)
    return match.group(0) if match else "misc"


def _benchmark_timing(benchmark) -> Optional[Dict[str, float]]:
    """Wall-clock stats from a completed pytest-benchmark fixture, if any."""
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None:
        return None
    timing: Dict[str, float] = {}
    for key in ("min", "max", "mean", "rounds"):
        value = getattr(stats, key, None)
        if value is not None:
            timing[f"{key}_seconds" if key != "rounds" else key] = float(value)
    return timing or None


def write_bench_json(experiment: str, entry_name: str, payload: Mapping) -> Path:
    """Merge one entry into ``BENCH_<experiment>.json`` and return the path.

    The file maps entry names (test ids) to their latest recorded payload;
    re-running a benchmark overwrites only its own entry.
    """
    directory = output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{experiment}.json"
    data: Dict[str, object] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    data[entry_name] = payload
    # write-to-temp + fsync + atomic rename: an interrupted or crashed run can
    # never leave a truncated JSON behind to poison later trajectory reads,
    # and the temp file itself is cleaned up on failure
    scratch = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(scratch, "w") as handle:
            handle.write(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    if experiment in HEADLINE_EXPERIMENTS:
        _mirror_headline(path)
    return path


def _mirror_headline(path: Path) -> None:
    """Copy a headline ``BENCH_*.json`` to the repo root (committed baseline)."""
    target = _REPO_ROOT / path.name
    if target == path:
        return
    try:
        target.write_text(path.read_text())
    except OSError:
        # a read-only checkout (e.g. an installed wheel) keeps its baseline
        pass


def emit(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Print (and return) a report table for one experiment."""
    table = format_table(headers, rows, title=title)
    print()
    print(table)
    return table


def attach(benchmark, **info) -> None:
    """Attach headline numbers to the pytest-benchmark record and persist them.

    Alongside ``benchmark.extra_info``, the numbers (plus the benchmark's
    timing stats, when the run has them) are merged into the experiment's
    ``BENCH_*.json`` file.
    """
    if benchmark is None:
        return
    for key, value in info.items():
        benchmark.extra_info[key] = value
    name = getattr(benchmark, "name", None)
    if not name:
        return
    payload: Dict[str, object] = {"extra_info": dict(benchmark.extra_info)}
    timing = _benchmark_timing(benchmark)
    if timing is not None:
        payload["timing"] = timing
    write_bench_json(experiment_tag(name), name, payload)


def best_of(function, rounds: int = 3):
    """(smallest wall-clock seconds, last result) of ``rounds`` runs.

    The fastest round is the repeatable part of a sub-millisecond measurement
    (and the first round doubles as the warm-up: plans, kernels, indexes).
    """
    times, result = [], None
    for _ in range(rounds):
        started = time.perf_counter()
        result = function()
        times.append(time.perf_counter() - started)
    return min(times), result


def string_ids(edges):
    """``edges`` with every int node renamed to a zero-padded (order-preserving) string id."""
    return [(f"n{source:07d}", f"n{target:07d}") for source, target in edges]


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` through pytest-benchmark with a small, fixed effort.

    The interesting measurements in this harness are the instrumentation
    counters (tuples examined, state size), not sub-millisecond timing noise,
    so every benchmark uses a handful of rounds.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=3, iterations=1, warmup_rounds=0)
