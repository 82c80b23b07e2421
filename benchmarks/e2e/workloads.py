"""The five workloads: inputs, load generators, correctness checks.

Each ``run_*`` function builds its inputs from the seed, drives the library
through names in ``repro.__all__`` only, checks every answer against the
oracle in :mod:`inputs`, and returns a :class:`Run`: the raw timestamps it
took around every call (the span log and every latency metric are derived
from those same timestamps, so a traced run executes the same loop as an
untraced one), the pass/fail tally, and whatever public counters the
program exposed.

Fixed configuration, identical on every commit: ``FlushPolicy()`` defaults,
``StorageConfig(fsync=True, snapshot_interval=64)``, ``readers=2``,
``cache_entries`` from :class:`Sizes`, and no registry or tracer unless the
run is traced.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import inputs
from .api import Api
from .config import READERS, STRETCH, SNAPSHOT_INTERVAL, TAIL, WARMUP, Sizes
from .measure import median, now, peak_rss_mb, percentile

class Tally:
    """Attempted / failed, with the first few reasons kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 5 - len(self.notes)])


@dataclass
class Run:
    """What one pass over a workload recorded."""

    tally: Tally
    #: ``(start, end)`` of every *correct* primary op, in issue order
    ops: List[Tuple[float, float]] = field(default_factory=list)
    #: the measured window: wall-clock for ``serve_*``, the seconds spent
    #: inside primary ops (failed ones included) for the single-client loops
    window_seconds: float = 0.0
    #: anything else a workload measured, by name
    extra: Dict[str, Any] = field(default_factory=dict)


Span = Tuple[float, float]


def stretches(workload: str, run: Run) -> List[Tuple[List[Span], float]]:
    """The window's ops, cut in issue order into stretches that all hold the
    same mix of work, each with the seconds it lasted: ``STRETCH``
    consecutive ops, or — for ``serve_read_mostly``, where each paced commit
    flushes the cache — the reads of one commit period."""
    if "period" in run.extra:
        begin, period = run.extra["begin"], run.extra["period"]
        cut: Dict[int, List[Span]] = {}
        for span in run.ops:
            cut.setdefault(int((span[0] - begin) / period), []).append(span)
        return [(cut[index], period) for index in sorted(cut)][:-1]  # the last period is cut short
    size = STRETCH[workload]
    pieces = [run.ops[index : index + size] for index in range(0, len(run.ops) - size + 1, size)]
    if workload.startswith("serve_"):
        # a second thread runs beside this one: first start to last end
        return [(piece, piece[-1][1] - piece[0][0]) for piece in pieces]
    # one closed-loop client waits only inside its ops
    return [(piece, sum(end - start for start, end in piece)) for piece in pieces]


def end_to_end(workload: str, run: Run) -> Dict[str, float]:
    """What the user of this workload waited for (``setup_s`` is measured in
    fresh processes by the launcher and added there).

    This sandbox shares its host: for seconds or minutes at a time
    everything runs 5-40 % slower, so a whole-window mean or median mostly
    reports how much of the window the neighbours took.  Interference only
    ever slows a stretch down, so the metric is the **best stretch** of the
    window — highest rate, lowest median — as ``timeit`` takes the minimum
    of its repeats.  A change to the program moves every stretch and so the
    best one; what it hides (a stall in a few stretches) is what the
    whole-window numbers printed beside it and the per-layer tail show.
    """
    cut = stretches(workload, run) or [(run.ops, run.window_seconds)]
    return {
        "ops_per_s": max(len(piece) / elapsed for piece, elapsed in cut),
        "op_p50_ms": min(median([end - start for start, end in piece]) for piece, _ in cut) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def whole_window(workload: str, run: Run) -> Dict[str, float]:
    """The same window as the client saw it, neighbours included (not gated)."""
    latency = [end - start for start, end in run.ops]
    return {
        "ops_per_s": len(run.ops) / run.window_seconds,
        "op_p50_ms": median(latency) * 1e3,
        "op_tail_ms": percentile(latency, TAIL[workload]) * 1e3,
    }


def _closed_loop(
    call: Callable[..., Any],
    items: Sequence[Tuple[tuple, Any]],
    verify: Callable[[Any, Any], bool],
    warmup: int,
) -> Run:
    """One client, next call only after the previous one returned."""
    run = Run(Tally())
    for index, (arguments, expected) in enumerate(items):
        start = now()
        try:
            result = call(*arguments)
        except Exception as exc:  # noqa: BLE001 - a raised op is a failed op, not a dead benchmark
            end = now()
            ok = run.tally.check(False, f"op {index} raised {exc!r}")
        else:
            end = now()
            ok = run.tally.check(verify(result, expected), f"op {index} answered wrong")
        if index >= warmup:
            run.window_seconds += end - start
            if ok:
                run.ops.append((start, end))
    return run


def load(api: Api, edges: Sequence[inputs.Edge]) -> Tuple[Any, Any]:
    """Inputs in memory -> a parsed program and a loaded database."""
    program = api.require("parse_program")(inputs.TC_PROGRAM)
    database = api.require("Database").from_dict({"a": edges, "b": edges})
    return program, database


# ----------------------------------------------------------------------
# (a) library user: ad-hoc selections, full materialization
# ----------------------------------------------------------------------
def adhoc_inputs(seed: int, sizes: Sizes, count: int):
    graph = inputs.forest(seed, sizes.trees, sizes.depth)
    stream = inputs.adhoc_stream(seed, graph, count)
    mirror = inputs.Mirror(graph.edges)
    expected: Dict[Tuple[str, int], set] = {}
    for _, constant, column in stream:
        if (constant, column) not in expected:
            expected[constant, column] = mirror.answers(constant, column)
    return graph, stream, expected


def run_adhoc(api: Api, seed: int, ops: int, sizes: Sizes, plant: Optional[str] = None) -> Run:
    warmup = min(WARMUP["adhoc_onesided"], ops)
    graph, stream, expected = adhoc_inputs(seed, sizes, warmup + ops)
    program, database = load(api, graph.edges)
    items = [((program, database, text), expected[constant, column]) for text, constant, column in stream]
    if plant == "oracle":
        arguments, wanted = items[-1]
        items[-1] = (arguments, wanted | {("planted", "planted")})
    answer = api.require("answer")
    run = _closed_loop(answer, items, lambda result, wanted: result.answers == wanted, warmup)
    return run


def materialize_edges(workload: str, seed: int, sizes: Sizes) -> List[Tuple[int, int]]:
    if workload == "materialize_thin":
        return inputs.chain(seed, sizes.chain)
    return inputs.layered_dag(seed, *sizes.dag)


def run_materialize(
    api: Api, workload: str, seed: int, ops: int, sizes: Sizes, plant: Optional[str] = None
) -> Run:
    warmup = min(WARMUP[workload], ops)
    edges = materialize_edges(workload, seed, sizes)
    closure = inputs.Mirror(edges).closure()
    program, database = load(api, edges)
    items = [((program, database), closure)] * (warmup + ops)
    if plant == "oracle":
        items[-1] = ((program, database), closure | {(-1, -1)})
    evaluate = api.require("seminaive_evaluate")
    run = _closed_loop(evaluate, items, lambda derived, wanted: derived["t"].rows() == wanted, warmup)
    run.extra["derived_tuples"] = len(closure)
    return run


# ----------------------------------------------------------------------
# (b) service client: reads beside writes, writes beside reads
# ----------------------------------------------------------------------
def open_service(api: Api, program: Any, database: Any, path: Path, sizes: Sizes, traced: bool):
    """A fresh durable service in the benchmark's fixed configuration."""
    registry = api.require("MetricsRegistry")() if traced else None
    tracer = api.require("Tracer")() if traced else None
    service = api.require("DatalogService")(
        program,
        database,
        readers=READERS,
        flush_policy=api.require("FlushPolicy")(),
        cache_entries=sizes.cache_entries,
        storage=str(path),
        storage_config=api.require("StorageConfig")(fsync=True, snapshot_interval=SNAPSHOT_INTERVAL),
        metrics=registry,
        tracer=tracer,
    )
    return service, registry


def commit(service: Any, batch: inputs.Commit, marks: List[float]) -> int:
    """Send one transaction and wait for its durable acknowledgement.

    ``marks`` receives a timestamp before the first call and after every
    call, so the traced run can show which call the client waited in.
    """
    marks.append(now())
    service.insert("a", batch.inserts)
    marks.append(now())
    service.insert("b", batch.inserts)
    marks.append(now())
    if batch.deletes:
        service.delete("a", batch.deletes)
        marks.append(now())
        service.delete("b", batch.deletes)
        marks.append(now())
    epoch = service.barrier()
    marks.append(now())
    return epoch


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def run_serve(
    api: Api,
    workload: str,
    seed: int,
    seconds: float,
    sizes: Sizes,
    scratch: Path,
    traced: bool = False,
    plant: Optional[str] = None,
) -> Run:
    """Both serve workloads: one writer thread, one reader thread.

    ``serve_read_mostly``: the reader is a closed loop over a zipf key
    stream, the writer an open loop (paced, timed from each commit's due
    time).  ``serve_write_burst``: the writer is the closed loop and the
    reader is paced over the hot set.  The writer's commit count fixes the
    length of the run either way.
    """
    read_mostly = workload == "serve_read_mostly"
    graph = inputs.forest(seed, sizes.trees, sizes.depth)
    parents = inputs.hot_parents(seed, graph, sizes.hot_keys)
    mirror = inputs.Mirror(graph.edges)
    written_trees = max(1, graph.trees // 2)
    warm_commits = WARMUP["commits"]
    commits = sizes.closed_loop_ops(workload, seconds)
    if read_mostly:
        write_pace: Optional[float] = 1.0 / sizes.paced_commits_per_s
        read_pace: Optional[float] = None
        keys = inputs.read_keys(seed, graph, sizes.read_keys)
        ranks = inputs.zipf_ranks(seed, len(keys), 1 << 17)
        # exact answers are known up front only where nothing is ever written
        static = [mirror.answers(node, 0) if tree >= written_trees else None for node, tree in keys]
        texts = [f"t({node}, Y)?" for node, _ in keys]
    else:
        write_pace = None
        read_pace = 1.0 / sizes.paced_reads_per_s
        rng = random.Random(f"probe-{seed}")
        ranks = [rng.randrange(len(parents)) for _ in range(1 << 12)]
        static = [None] * len(parents)
        texts = [f"t({node}, Y)?" for node in parents]
    stream = inputs.write_stream(seed, graph, parents, warm_commits + commits, deletes=not read_mostly)

    program, database = load(api, graph.edges)
    store = scratch / "store"
    service, registry = open_service(api, program, database, store, sizes, traced)
    run = Run(Tally())
    reader_tally, writer_tally = Tally(), Tally()
    stop = threading.Event()
    read_spans: List[Tuple[float, float]] = []
    read_cached: List[bool] = []
    observed: List[Tuple[int, int, Any]] = []  # (key, epoch, answers) for post-hoc checks
    commit_marks: List[List[float]] = []
    commit_due: List[float] = []
    clean_epochs: Dict[int, int] = {}  # epoch a barrier returned -> commits applied by then

    def reader(pace: Optional[float], begin: float) -> None:
        query = service.query
        count = 0
        while not stop.is_set():
            key = ranks[count % len(ranks)]
            if pace is not None:
                delay = begin + count * pace - now()
                if delay > 0 and stop.wait(delay):
                    break
            count += 1
            start = now()
            try:
                result = query(texts[key])
            except Exception as exc:  # noqa: BLE001 - a refused read is a failed read
                reader_tally.check(False, f"read {count} raised {exc!r}")
                continue
            end = now()
            wanted = static[key]
            if reader_tally.check(wanted is None or result.answers == wanted, f"read {texts[key]} answered wrong"):
                read_spans.append((start, end))
                read_cached.append(result.cached)
            if pace is not None:
                observed.append((key, result.epoch, result.answers))

    def write_one(index: int, batch: inputs.Commit, due: Optional[float]) -> None:
        marks: List[float] = []
        try:
            if plant == "dropped_write" and index == len(stream) - 2:
                # the benchmark believes this commit was acknowledged; the
                # service never saw it
                marks.extend((now(), now()))
                epoch = service.barrier()
            else:
                epoch = commit(service, batch, marks)
            mirror.apply(batch)
            clean_epochs[epoch] = index + 1
            fresh = True
            for node in [batch.inserts[0][0]] + [source for source, _ in batch.deletes]:
                seen = service.query(f"t({node}, Y)?")
                fresh = fresh and seen.epoch >= epoch and seen.answers == mirror.answers(node, 0)
        except Exception as exc:  # noqa: BLE001 - a refused commit is a failed commit
            writer_tally.check(False, f"commit {index} raised {exc!r}")
            return
        if writer_tally.check(fresh, f"commit {index} not visible after its barrier") and index >= warm_commits:
            commit_marks.append(marks)
            commit_due.append(marks[0] if due is None else due)

    def writer(pace: Optional[float], begin: float) -> None:
        try:
            for index, batch in enumerate(stream[warm_commits:], warm_commits):
                due = None
                if pace is not None:
                    due = begin + (index - warm_commits) * pace
                    delay = due - now()
                    if delay > 0:
                        time.sleep(delay)
                write_one(index, batch, due)
        finally:
            stop.set()

    try:
        for index, batch in enumerate(stream[:warm_commits]):
            write_one(index, batch, None)
        for key in ranks[: WARMUP["reads"]]:
            service.query(texts[key])
        before = service.stats
        begin = now()
        threads = [
            threading.Thread(target=reader, args=(read_pace, begin), name="bench-reader"),
            threading.Thread(target=writer, args=(write_pace, begin), name="bench-writer"),
        ]
        if len(threads) > (os.cpu_count() or 1):
            raise RuntimeError(f"{len(threads)} client threads on {os.cpu_count()} cores would measure the scheduler")
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.window_seconds = now() - begin
        after = service.stats

        # final state: everything acknowledged is published, and is on disk
        service.barrier()
        published = service.snapshot()
        run.tally.check(published.relation("t").rows() == mirror.closure(), "final t differs from the oracle closure")
        copy = scratch / "copy"
        shutil.copytree(store, copy)
        _check_durable(api, copy, stream, mirror, run.tally)
        run.extra["service_stats"] = {
            name: getattr(after, name) - getattr(before, name)
            for name in ("queries_served", "cache_hits", "cache_misses", "writes_applied", "flushes",
                         "maintenance_rounds", "epochs_published")
        }
        storage = service.storage_stats
        run.extra["storage_stats"] = storage.as_dict() if storage is not None else {}
        run.extra["registry"] = registry
    finally:
        service.close()

    # reads by the paced prober: exact wherever the epoch is one a barrier returned
    replay = inputs.Mirror(graph.edges)
    applied = 0
    for key, epoch, answers in sorted(observed, key=lambda row: row[1]):
        if epoch in clean_epochs:
            while applied < clean_epochs[epoch]:
                replay.apply(stream[applied])
                applied += 1
            reader_tally.check(
                answers == replay.answers(parents[key], 0), f"read {texts[key]} wrong at epoch {epoch}"
            )
    epochs = [epoch for _, epoch, _ in observed]
    run.tally.check(epochs == sorted(epochs), "a reader saw the published epoch go backwards")

    run.extra["storage_bytes"] = directory_bytes(store)
    run.extra["user_bytes"] = mirror.user_bytes()
    run.extra["reopen_seconds"] = _reopen(api, store, sizes.reopens, parents[0], mirror, run.tally)
    run.extra["store"] = store
    run.extra["read_spans"] = read_spans
    run.extra["read_cached"] = read_cached
    run.extra["commit_marks"] = commit_marks
    run.extra["commit_due"] = commit_due
    run.extra["committed_bytes"] = sum(batch.user_bytes for batch in stream)
    run.tally.merge(reader_tally)
    run.tally.merge(writer_tally)
    if not read_mostly:
        run.ops = [(marks[0], marks[-1]) for marks in commit_marks]
    else:
        run.ops = read_spans
        run.extra["begin"], run.extra["period"] = begin, write_pace
    return run


def _check_durable(api: Api, copy: Path, stream: Sequence[inputs.Commit], mirror: inputs.Mirror, tally: Tally) -> None:
    """Open a copy taken while the service was live, right after a barrier:
    every acknowledged row op must be visible in what recovery rebuilds."""
    recovered = api.require("DatalogService").open(copy, readers=READERS)
    try:
        stored = recovered.snapshot().edb
        for name in ("a", "b"):
            rows = stored[name].rows() if name in stored else set()
            for batch in stream:
                for op, edges in (("insert", batch.inserts), ("delete", batch.deletes)):
                    for edge in edges:
                        tally.check((edge in rows) == (edge in mirror.edges), f"{op} {name}{edge} lost on recovery")
            tally.check(rows == mirror.edges, f"recovered {name} differs from the acknowledged edge set")
    finally:
        recovered.close()
        shutil.rmtree(copy)


def _reopen(api: Api, store: Path, times: int, node: str, mirror: inputs.Mirror, tally: Tally) -> List[float]:
    """Restart: ``DatalogService.open(path)`` until the first correct answer."""
    wanted = mirror.answers(node, 0)
    seconds = []
    for _ in range(times):
        start = now()
        service = api.require("DatalogService").open(store, readers=READERS)
        try:
            answers = service.query(f"t({node}, Y)?").answers
            seconds.append(now() - start)
        finally:
            service.close()
        tally.check(answers == wanted, "first answer after reopen is wrong")
    return seconds


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_once(api: Api, workload: str, seed: int, sizes: Sizes, scratch: Path) -> float:
    """Seconds from inputs-in-memory to the first op *completed*.

    Called once per fresh process, so plan compilation and kernel generation
    are cold, as they are for a user's first call.  Generating the inputs is
    the benchmark's work and is not timed.
    """
    if workload == "adhoc_onesided":
        graph, stream, _ = adhoc_inputs(seed, sizes, 1)
        edges: Sequence[inputs.Edge] = graph.edges
    elif workload in ("materialize_thin", "materialize_fat"):
        edges = materialize_edges(workload, seed, sizes)
    else:
        graph = inputs.forest(seed, sizes.trees, sizes.depth)
        edges = graph.edges
        parents = inputs.hot_parents(seed, graph, sizes.hot_keys)
        batch = inputs.write_stream(seed, graph, parents, 1, deletes=True)[0]
    start = now()
    program, database = load(api, edges)
    if workload == "adhoc_onesided":
        api.require("answer")(program, database, stream[0][0])
    elif workload in ("materialize_thin", "materialize_fat"):
        api.require("seminaive_evaluate")(program, database)
    else:
        service, _ = open_service(api, program, database, scratch / "store", sizes, traced=False)
        try:
            if workload == "serve_read_mostly":
                service.query(f"t({parents[0]}, Y)?")
            else:
                commit(service, batch, [])
            return now() - start
        finally:
            service.close()
    return now() - start
