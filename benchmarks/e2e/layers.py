"""The traced pass: per-layer numbers, measured from outside the program.

Nothing under ``src/`` is instrumented for this.  A layer's numbers come
from a span around each call the benchmark makes into that layer's public
function, on the workload's own inputs, plus the counters the program
already exposes (``EvaluationStats``, ``ServiceStats``, ``StorageStats``,
``ServiceResult.cached``, the ``repro_service_*`` / ``repro_storage_*``
histograms of a real ``MetricsRegistry``, ``profile=True`` dispatch
decisions).  A layer the workload never enters reads 0 here: that is the
bypass half of the design, not a missing measurement.  A probe whose entry
point has been deleted also reads 0, with a note.

The traced pass runs each workload at a quarter of its op count.  End-to-end
metrics are never taken from it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import inputs
from .api import Api
from .config import WARMUP, Sizes
from .measure import SpanLog, median, now, percentile
from .workloads import (
    Run,
    adhoc_inputs,
    end_to_end,
    load,
    materialize_edges,
    run_adhoc,
    run_materialize,
    run_serve,
    whole_window,
)

Metrics = Dict[str, float]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


def _repeat(log: SpanLog, name: str, times: int, call: Callable[[], Any]) -> Any:
    result = None
    for _ in range(times):
        with log.span(name):
            result = call()
    return result


def _median_of(log: SpanLog, name: str) -> float:
    durations = log.durations(name)
    return median(durations) if durations else 0.0


def setup_layer(api: Api, log: SpanLog, edges: Sequence[inputs.Edge], metrics: Metrics) -> None:
    """``datalog``: what every workload pays before its first op."""
    parse_program = api.require("parse_program")
    database = api.require("Database")
    _repeat(log, "datalog.parse_program", 32, lambda: parse_program(inputs.TC_PROGRAM))
    _repeat(log, "datalog.load", 5, lambda: database.from_dict({"a": edges, "b": edges}))
    metrics["datalog.parse_program_ms"] = _ms(_median_of(log, "datalog.parse_program"))
    metrics["datalog.load_rows_per_s"] = 2 * len(edges) / _median_of(log, "datalog.load")


# ----------------------------------------------------------------------
# adhoc_onesided: parse -> optimize -> classify -> Figure-9 schema
# ----------------------------------------------------------------------
def trace_adhoc(api: Api, seed: int, ops: int, sizes: Sizes) -> Tuple[Run, Metrics, SpanLog]:
    log = SpanLog()
    metrics: Metrics = {}
    run = run_adhoc(api, seed, ops, sizes)
    for op, (start, end) in enumerate(run.ops):
        log.add("engine.query.answer", start, end, op=op)

    warmup = min(WARMUP["adhoc_onesided"], ops)
    graph, stream, _ = adhoc_inputs(seed, sizes, warmup + ops)
    sample = stream[warmup : warmup + sizes.sample]
    setup_layer(api, log, graph.edges, metrics)
    program, database = load(api, graph.edges)

    parse_query = api.probe("parse_query")
    selection_query = api.probe("SelectionQuery")
    stats_type = api.require("EvaluationStats")
    # (entry point, span name by bound column, queries of the sample it replays)
    strategies = [
        ("one_sided_query", ("core.schema.forward", "core.schema.backward"), len(sample)),
        # the baselines re-intern the database on every call: tens of ms each
        ("magic_query", ("baselines.magic", "baselines.magic"), sizes.baseline_sample),
        ("counting_query", ("baselines.counting", None), sizes.baseline_sample),  # binds column 0 only
    ]
    examined = {name: 0 for name, _, _ in strategies}
    answers = dict(examined)
    if parse_query is not None and selection_query is not None:
        for op, (text, _, column) in enumerate(sample):
            with log.span("datalog.parse_query", op=op):
                atom = parse_query(text)
            selection = selection_query.from_atom(atom)
            for name, spans, limit in strategies:
                strategy = api.probe(name)
                if strategy is None or spans[column] is None or op >= limit:
                    continue
                stats = stats_type()
                with log.span(spans[column], op=op):
                    result = strategy(program, database, selection, stats=stats)
                examined[name] += stats.tuples_examined
                answers[name] += len(result.answers)

    optimize_program = api.probe("optimize_program")
    optimized = None
    if optimize_program is not None:
        optimized = _repeat(log, "optimize.run", 32, lambda: optimize_program(program, "t"))
    classify = api.probe("classify")
    if classify is not None:
        _repeat(log, "core.classify", 32, lambda: classify(program, "t"))

    answered = [end - start for start, end in run.ops[: len(sample)]]
    answer_p50 = median(answered)
    schema = log.durations("core.schema.forward") + log.durations("core.schema.backward")
    optimize_s = _median_of(log, "optimize.run")
    metrics.update({
        "datalog.parse_query_us": _us(_median_of(log, "datalog.parse_query")),
        "optimize.run_ms": _ms(optimize_s),
        "optimize.rewrites_fired": float(len(optimized.fired())) if optimized is not None else 0.0,
        "optimize.share_of_query": optimize_s / answer_p50,
        "core.classify_ms": _ms(_median_of(log, "core.classify")),
        "core.schema.forward_p50_ms": _ms(_median_of(log, "core.schema.forward")),
        "core.schema.backward_p50_ms": _ms(_median_of(log, "core.schema.backward")),
        "core.schema.tuples_examined_per_answer": _ratio(examined["one_sided_query"], answers["one_sided_query"]),
        "core.schema.share_of_query": sum(schema) / sum(answered),
        "baselines.magic_p50_ms": _ms(_median_of(log, "baselines.magic")),
        "baselines.counting_p50_ms": _ms(_median_of(log, "baselines.counting")),
        "baselines.magic_tuples_examined_per_answer": _ratio(examined["magic_query"], answers["magic_query"]),
        # per query: what answer() took beyond one optimizer run and the
        # schema called directly on the same selection
        "engine.query.ladder_overhead_ms": _ms(median(
            [whole - optimize_s - part for whole, part in zip(answered, _paired(log, len(answered)))]
        )),
    })
    return run, metrics, log


def _paired(log: SpanLog, count: int) -> List[float]:
    """Seconds the schema took on sample query ``op``, for each op in order."""
    seconds = [0.0] * count
    for name, start, end, _, op in log.rows:
        if name.startswith("core.schema.") and 0 <= op < count:
            seconds[op] = end - start
    return seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# materialize_*: the fixpoint engine and nothing above it
# ----------------------------------------------------------------------
def trace_materialize(api: Api, workload: str, seed: int, ops: int, sizes: Sizes) -> Tuple[Run, Metrics, SpanLog]:
    log = SpanLog()
    metrics: Metrics = {}
    edges = materialize_edges(workload, seed, sizes)
    program, database = load(api, edges)
    evaluate = api.require("seminaive_evaluate")
    with log.span("engine.seminaive_evaluate.cold"):
        evaluate(program, database)  # first evaluation in this process: plans and kernels are built here

    run = run_materialize(api, workload, seed, ops, sizes)
    for op, (start, end) in enumerate(run.ops):
        log.add("engine.seminaive_evaluate", start, end, op=op)
    setup_layer(api, log, edges, metrics)

    stats = api.require("EvaluationStats")()
    with log.span("engine.seminaive_evaluate.counted"):
        evaluate(program, database, stats)
    warm = _median_of(log, "engine.seminaive_evaluate")
    metrics.update({
        "engine.eval_p90_ms": _ms(percentile(log.durations("engine.seminaive_evaluate"), 0.9)),
        "engine.tuples_examined": float(stats.tuples_examined),
        "engine.iterations": float(stats.iterations),
        "engine.tuples_examined_per_s": stats.tuples_examined / warm,
        "engine.derived_tuples_per_s": run.extra["derived_tuples"] / warm,
        "engine.compile_cold_ms": _ms(log.durations("engine.seminaive_evaluate.cold")[0] - warm),
    })
    _dispatch(api, program, database, edges[0][0], metrics)
    metrics["engine.domain.intern_overhead_share"] = _intern_overhead(api, log, edges)
    return run, metrics, log


def _dispatch(api: Api, program: Any, database: Any, constant: Any, metrics: Metrics) -> None:
    """Which executor the engine chose, from one profiled evaluation."""
    profiled = api.require("answer")(program, database, f"t({constant}, Y)?", strategy="seminaive", profile=True)
    strata = getattr(getattr(profiled, "profile", None), "strata", None)
    if not strata:
        return
    for metric, dispatch in (("columnar_share", "columnar"), ("kernel_share", "kernel-loop")):
        chosen = sum(1 for decision in strata if decision.dispatch == dispatch)
        metrics[f"engine.dispatch.{metric}"] = chosen / len(strata)


def _intern_overhead(api: Api, log: SpanLog, edges: Sequence[inputs.Edge]) -> float:
    """(t_str - t_int) / t_str for the same graph under string and int ids."""
    evaluate = api.require("seminaive_evaluate")
    ids: Dict[Any, int] = {}
    for edge in edges:
        for node in edge:
            ids.setdefault(node, len(ids))
    for span, rename in (("engine.evaluate.int_ids", lambda n: ids[n]), ("engine.evaluate.str_ids", lambda n: f"v{ids[n]:07d}")):
        program, database = load(api, [(rename(source), rename(target)) for source, target in edges])
        evaluate(program, database)
        _repeat(log, span, 3, lambda: evaluate(program, database))
    as_str = _median_of(log, "engine.evaluate.str_ids")
    return (as_str - _median_of(log, "engine.evaluate.int_ids")) / as_str


# ----------------------------------------------------------------------
# serve_*: cache, queue, maintenance, WAL, recovery
# ----------------------------------------------------------------------
def trace_serve(
    api: Api, workload: str, seed: int, seconds: float, sizes: Sizes, scratch: Path
) -> Tuple[Run, Metrics, SpanLog]:
    log = SpanLog()
    metrics: Metrics = {}
    read_mostly = workload == "serve_read_mostly"
    plain = run_serve(api, workload, seed, seconds, sizes, scratch / "plain")
    run = run_serve(api, workload, seed, seconds, sizes, scratch / "traced", traced=True)
    run.tally.merge(plain.tally)
    metrics["obs.trace_overhead_share"] = (
        1.0 - end_to_end(workload, run)["ops_per_s"] / end_to_end(workload, plain)["ops_per_s"]
    )

    reads: List[Tuple[float, float]] = run.extra["read_spans"]
    cached: List[bool] = run.extra["read_cached"]
    for op, (start, end) in enumerate(reads):
        log.add("service.query", start, end, op=op)
    for op, marks in enumerate(run.extra["commit_marks"], len(reads)):
        parent = log.add("client.commit", marks[0], marks[-1], op=op)
        calls = ["service.insert", "service.insert"] + ["service.delete"] * (len(marks) - 4) + ["service.barrier"]
        for call, start, end in zip(calls, marks, marks[1:]):
            log.add(call, start, end, parent, op)

    graph = inputs.forest(seed, sizes.trees, sizes.depth)
    setup_layer(api, log, graph.edges, metrics)
    metrics["engine.domain.intern_overhead_share"] = _intern_overhead(api, log, graph.edges)

    # --- service: cache and publication
    counters = run.extra["service_stats"]
    latency = [end - start for start, end in reads]
    hits = [seconds for seconds, hit in zip(latency, cached) if hit]
    misses = [seconds for seconds, hit in zip(latency, cached) if not hit]
    commits = len(run.extra["commit_marks"])
    from_due = [marks[-1] - due for marks, due in zip(run.extra["commit_marks"], run.extra["commit_due"])]
    commit_p50 = median(from_due)
    metrics.update({
        "service.cache.hit_share": _ratio(counters["cache_hits"], counters["queries_served"]),
        "service.query_hit_p50_us": _us(median(hits)) if hits else 0.0,
        "service.query_miss_p50_us": _us(median(misses)) if misses else 0.0,
        "service.read_stall_p999_us": _us(percentile(latency, 0.999)),
        "service.coalescing_factor": _ratio(counters["writes_applied"], counters["flushes"]),
        "service.maintenance_rounds_per_commit": _ratio(counters["maintenance_rounds"], commits),
        "service.epochs_published": float(counters["epochs_published"]),
    })
    if read_mostly:
        lateness = [marks[0] - due for marks, due in zip(run.extra["commit_marks"], run.extra["commit_due"])]
        metrics["service.commit_under_reads_p50_ms"] = _ms(commit_p50)
        metrics["service.writer_lateness_p95_ms"] = _ms(percentile(lateness, 0.95))
    else:
        metrics["service.commit_p50_ms"] = _ms(commit_p50)
        metrics["service.read_beside_writes_p50_us"] = _us(median(latency))

    # --- histograms the program keeps once it is given a real registry
    registry = run.extra["registry"]
    for metric, family in (
        ("service.flush_mean_ms", "repro_service_flush_seconds"),
        ("service.publish_mean_ms", "repro_service_publish_seconds"),
        ("storage.append_mean_ms", "repro_storage_append_seconds"),
        ("storage.fsync_mean_ms", "repro_storage_fsync_seconds"),
        ("storage.compaction_mean_ms", "repro_storage_compaction_seconds"),
    ):
        count = registry.sample_value(family + "_count")
        total = registry.sample_value(family + "_sum")
        if count is None or total is None:
            api.missing.append(family)
        elif count:
            metrics[metric] = _ms(total / count)

    # --- storage: what reached the directory
    store: Path = run.extra["store"]
    storage = run.extra["storage_stats"]
    snapshots = sorted(store.glob("snapshot-*"))
    snapshot_bytes = snapshots[-1].stat().st_size if snapshots else 0
    metrics.update({
        "storage.compactions": float(storage.get("compactions", 0)),
        "storage.wal_bytes_per_row": _ratio(storage.get("bytes_appended", 0), storage.get("rows_logged", 0)),
        "storage.snapshot_bytes": float(snapshot_bytes),
        # WAL frames plus one snapshot per compaction (the genesis snapshot
        # is set-up), over the bytes of the rows the client committed
        "storage.bytes_written_per_user_byte": _ratio(
            storage.get("bytes_appended", 0) + storage.get("compactions", 0) * snapshot_bytes,
            run.extra["committed_bytes"],
        ),
        "storage_bytes_per_user_byte": _ratio(run.extra["storage_bytes"], run.extra["user_bytes"]),
        "recovery_s": median(run.extra["reopen_seconds"]),
    })
    durable_store = api.probe("DurableStore")
    if durable_store is not None:
        for _ in range(3):
            recovering = durable_store(store)
            try:
                with log.span("storage.recover"):
                    state = recovering.recover()
            finally:
                recovering.close()
        metrics["storage.recover_s"] = _median_of(log, "storage.recover")
        metrics["storage.records_replayed"] = float(state.records_replayed)

    # --- incremental: a bare Session, no queue, no WAL, no snapshots
    row_cost = _trace_incremental(api, log, seed, graph, sizes, read_mostly, metrics)
    if not read_mostly:
        records_per_commit = _ratio(storage.get("records_appended", 0), commits + WARMUP["commits"])
        outside = row_cost + metrics.get("storage.append_mean_ms", 0.0) * records_per_commit
        metrics["service.queue_overhead_ms"] = _ms(commit_p50) - outside
    return run, metrics, log


def _trace_incremental(
    api: Api, log: SpanLog, seed: int, graph: inputs.Forest, sizes: Sizes, read_mostly: bool, metrics: Metrics
) -> float:
    """Replay a sample of the write stream row by row; returns the summed row
    cost of one average commit in milliseconds."""
    session_type = api.probe("Session")
    if session_type is None:
        return 0.0
    for _ in range(3):
        program, database = load(api, graph.edges)
        with log.span("incremental.materialize"):
            session = session_type(program, database)
    metrics["incremental.materialize_s"] = _median_of(log, "incremental.materialize")

    keys = inputs.read_keys(seed, graph, min(sizes.read_keys, sizes.sample))
    for node, _ in keys:
        with log.span("incremental.view_lookup"):
            session.query(f"t({node}, Y)?")
    metrics["incremental.view_lookup_us"] = _us(_median_of(log, "incremental.view_lookup"))

    parents = inputs.hot_parents(seed, graph, sizes.hot_keys)
    stream = inputs.write_stream(seed, graph, parents, WARMUP["commits"] + sizes.write_sample // 8, deletes=not read_mostly)
    examined = rederived = deleted_rows = rows = 0
    for index, batch in enumerate(stream):
        for name, edges, apply in (("insert", batch.inserts, session.insert), ("delete", batch.deletes, session.delete)):
            for edge in edges:
                for relation in ("a", "b"):
                    start = now()
                    apply(relation, [edge])
                    end = now()
                    if index < WARMUP["commits"]:
                        continue
                    log.add(f"incremental.{name}_row", start, end, op=index)
                    rows += 1
                    examined += session.last_stats.tuples_examined
                    if name == "delete":
                        deleted_rows += 1
                        rederived += session.last_stats.tuples_rederived
    inserts = log.durations("incremental.insert_row")
    deletes = log.durations("incremental.delete_row")
    metrics.update({
        "incremental.insert_row_ms": _ms(median(inserts)) if inserts else 0.0,
        "incremental.delete_row_ms": _ms(median(deletes)) if deletes else 0.0,
        "incremental.tuples_examined_per_row": _ratio(examined, rows),
        "incremental.tuples_rederived_per_delete": _ratio(rederived, deleted_rows),
    })
    measured = len(stream) - WARMUP["commits"]
    return _ms(_ratio(sum(inserts) + sum(deletes), measured))


def trace(
    api: Api, workload: str, seed: int, seconds: float, sizes: Sizes, scratch: Path
) -> Tuple[Run, Metrics, SpanLog]:
    """One workload's traced pass, at a quarter of its op count."""
    quarter = seconds / 4.0
    if workload == "adhoc_onesided":
        run, metrics, log = trace_adhoc(api, seed, sizes.closed_loop_ops(workload, quarter), sizes)
    elif workload in ("materialize_thin", "materialize_fat"):
        run, metrics, log = trace_materialize(api, workload, seed, sizes.closed_loop_ops(workload, quarter), sizes)
    else:
        run, metrics, log = trace_serve(api, workload, seed, quarter, sizes, scratch)
    metrics["client.op_tail_ms"] = whole_window(workload, run)["op_tail_ms"]
    return run, metrics, log
