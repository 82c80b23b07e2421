"""E19 — columnar batch execution vs. the kernels.

PR 7's claim: once the kernels have fused the per-tuple interpreter away,
the next constant factor is *per-row dispatch* — one Python iteration per
delta tuple.  The columnar executor (``repro.engine.columnar``) re-runs the
same semi-naive rounds over hash-partitioned column vectors, moving whole
delta partitions per dispatch.

Three experiments:

* **layered fat sweep** — the headline: full semi-naive transitive closure
  over wide, high-fanout layered DAGs (the shape whose dense delta
  partitions the batch executor was built for).  Forced-columnar evaluation
  must beat the kernel engine ≥ 3× wall-clock with tuple-identical results
  *and* identical instrumentation counters.
* **chain honesty check** — single chains produce one-tuple partitions, the
  batch path's worst case.  The forced-columnar ratio is recorded
  *unguarded* (``ratio_chain_*``, expected < 1), and the adaptive planner —
  the shipping configuration — is asserted to hand the workload back to the
  kernels at no measurable cost.
* **fan-out sweep** — what the adaptive decision is calibrated against:
  forests and layered DAGs of out-degree 2, 3, 4 and 8 under string ids (the
  binary forest is the input the service materializes on start), kernel loop
  vs forced vs adaptive, with the ``profit_score`` each shape gets.  Recorded
  unguarded: trees lose under batching at *every* out-degree (every tuple is
  derived once, so there is nothing to batch) while DAGs win from the lowest
  score up, so no value of ``PROFIT_THRESHOLD`` separates the two and the
  constant stays where it was; ``ratio_forest_adaptive`` is the number a
  better score has to move to ≥ 0.95.

``speedup_*`` keys in ``extra_info`` are CI-guarded ≥ 1.0 (see
``.github/workflows/ci.yml``); ``ratio_*`` keys are recorded for the table
but never guarded.
"""

from __future__ import annotations

from repro.engine import EvaluationStats, seminaive_evaluate
from repro.engine.instrumentation import query_trace
from repro.obs.profile import ProfileRecorder
from repro.testing.reference import batching, step_machine
from repro.workloads import chain, edge_database, layered_dag, transitive_closure, uniform_tree
from .helpers import attach, best_of, emit, run_once, string_ids

TC = transitive_closure()

#: (layers, width, fanout) — wide/fat shapes whose delta partitions are dense
LAYERED_SHAPES = [(12, 60, 8), (12, 80, 8), (10, 80, 10)]
CHAIN_LENGTH = 300
#: out-degree → (depth, trees); the binary forest is the end-to-end ``serve_*`` input
FOREST_SHAPES = {2: (7, 64), 3: (5, 32), 4: (4, 32), 8: (3, 24)}
#: fan-outs of the 12-layer, 60-wide DAG; 8 is the end-to-end ``materialize_fat`` shape
DAG_FANOUTS = (2, 3, 4, 8)


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    return values


def timed_batch_modes(function):
    """Best-of timings of ``function`` under kernel / forced-columnar modes.

    Both runs keep kernels on — this experiment isolates the batch executor
    against the PR 4 runtime, not against the interpreter.
    Returns ``(kernel seconds, columnar seconds, kernel result, columnar
    result)``.
    """
    with step_machine(False), batching("off"):
        kernel_time, kernel_result = best_of(function, rounds=5)
    with step_machine(False), batching("force"):
        columnar_time, columnar_result = best_of(function, rounds=5)
    return kernel_time, columnar_time, kernel_result, columnar_result


def closure_with_counters(database):
    stats = EvaluationStats()
    derived = seminaive_evaluate(TC, database, stats)
    return {p: r.rows() for p, r in derived.items()}, counters(stats)


def test_e19_layered_fat_sweep_speedup(benchmark):
    """The headline: forced-columnar closure ≥ 3× kernels on fat layered DAGs."""

    def sweep():
        rows = []
        ratios = {}
        for layers, width, fanout in LAYERED_SHAPES:
            database = edge_database(layered_dag(layers, width, fanout, seed=7))

            def closure(db=database):
                return closure_with_counters(db)

            kernel_time, columnar_time, kernel_out, columnar_out = timed_batch_modes(closure)
            kernel_rows, kernel_counters = kernel_out
            columnar_rows, columnar_counters = columnar_out
            assert columnar_rows == kernel_rows  # tuple-identical answers
            assert columnar_counters == kernel_counters  # counter-identical too
            ratio = kernel_time / max(columnar_time, 1e-9)
            ratios[(layers, width, fanout)] = ratio
            rows.append(
                [f"layered({layers}x{width}, fanout {fanout})", len(kernel_rows["t"]),
                 round(kernel_time * 1000, 1), round(columnar_time * 1000, 1),
                 round(ratio, 2)]
            )
        return rows, ratios

    rows, ratios = run_once(benchmark, sweep)
    emit(
        "E19a: semi-naive closure, columnar batch executor vs kernels (layered fat sweep)",
        ["workload", "t tuples", "kernel ms", "columnar ms", "speedup"],
        rows,
    )
    best = max(ratios.values())
    assert best >= 3.0, f"columnar speedup regressed to {best:.2f}x on the fat layered sweep"
    attach(
        benchmark,
        speedup_layered_best=round(best, 2),
        speedup_layered_min=round(min(ratios.values()), 2),
    )


def test_e19_chain_adaptive_fallback(benchmark):
    """Chains are the batch path's worst case; the planner must step aside.

    One-tuple delta partitions give the columnar executor nothing to
    amortize, so forcing it loses (the unguarded honesty ratio below).  The
    shipping configuration is *adaptive*: ``profit_score`` scores the
    initial delta and hands chains back to the kernel loop, which must cost
    essentially nothing (asserted ≥ 0.8 to allow scheduler jitter).
    """
    database = edge_database(chain(CHAIN_LENGTH))

    def closure():
        return closure_with_counters(database)

    def compare():
        kernel_time, forced_time, kernel_out, forced_out = timed_batch_modes(closure)
        adaptive_time, adaptive_out = best_of(closure, rounds=5)
        assert forced_out == kernel_out
        assert adaptive_out == kernel_out
        return kernel_time, forced_time, adaptive_time

    kernel_time, forced_time, adaptive_time = run_once(benchmark, compare)
    forced_ratio = kernel_time / max(forced_time, 1e-9)
    adaptive_ratio = kernel_time / max(adaptive_time, 1e-9)
    emit(
        "E19b: single chain — forced batch execution vs the adaptive planner",
        ["workload", "kernel ms", "forced ms", "adaptive ms", "forced ratio", "adaptive ratio"],
        [[f"chain({CHAIN_LENGTH})",
          round(kernel_time * 1000, 1), round(forced_time * 1000, 1),
          round(adaptive_time * 1000, 1), round(forced_ratio, 2), round(adaptive_ratio, 2)]],
    )
    # the planner's fallback may not cost more than timing noise; 0.8 floor
    # keeps the check meaningful without tripping on scheduler jitter
    assert adaptive_ratio >= 0.8, f"adaptive fallback costs {adaptive_ratio:.2f}x on chains"
    attach(
        benchmark,
        ratio_chain_adaptive=round(adaptive_ratio, 2),
        ratio_chain_forced=round(forced_ratio, 2),
    )


def forest(out_degree: int) -> list:
    depth, trees = FOREST_SHAPES[out_degree]
    return [
        (tree * 1_000_000 + parent, tree * 1_000_000 + child)
        for tree in range(trees)
        for parent, child in uniform_tree(out_degree, depth)
    ]


def adaptive_decision(database):
    """``(dispatch, profit score)`` the product's decision gives the closure's stratum."""
    recorder = ProfileRecorder("t(X, Y)?", trace_id="e19-decision")
    with query_trace(recorder.trace_id, recorder):
        seminaive_evaluate(TC, database)
    decision = recorder.strata[-1]
    return decision.dispatch, decision.score


def test_e19_fanout_sweep(benchmark):
    """Trees vs layered DAGs by out-degree: where batching pays, and what the score says."""
    shapes = [(f"forest(out-degree {d})", f"forest_d{d}", forest(d)) for d in FOREST_SHAPES]
    shapes += [
        (f"layered(12x60, fanout {f})", f"dag_f{f}", layered_dag(12, 60, f, seed=7))
        for f in DAG_FANOUTS
    ]

    def sweep():
        rows, measured = [], {}
        for label, key, edges in shapes:
            database = edge_database(string_ids(edges))

            def closure(db=database):
                return closure_with_counters(db)

            kernel_time, forced_time, kernel_out, forced_out = timed_batch_modes(closure)
            adaptive_time, adaptive_out = best_of(closure, rounds=5)
            assert forced_out == kernel_out  # tuples and counters, on every shape
            assert adaptive_out == kernel_out
            dispatch, score = adaptive_decision(database)
            measured[key] = (score, dispatch, kernel_time / forced_time, kernel_time / adaptive_time)
            rows.append(
                [label, len(kernel_out[0]["t"]), round(score, 2), dispatch,
                 round(kernel_time * 1000, 1), round(forced_time * 1000, 1),
                 round(adaptive_time * 1000, 1), round(kernel_time / forced_time, 2),
                 round(kernel_time / adaptive_time, 2)]
            )
        return rows, measured

    rows, measured = run_once(benchmark, sweep)
    emit(
        "E19d: fan-out sweep under string ids — kernel loop vs forced vs adaptive",
        ["workload", "t tuples", "score", "adaptive runs", "kernel ms", "forced ms",
         "adaptive ms", "forced ratio", "adaptive ratio"],
        rows,
    )
    # the end-to-end fat workload's shape must keep the batch executor
    assert measured["dag_f8"][1] == "columnar"
    info = {"ratio_forest_adaptive": round(measured["forest_d2"][3], 2)}
    for key, (score, _dispatch, forced_ratio, _adaptive_ratio) in measured.items():
        info[f"score_{key}"] = round(score, 2)
        info[f"ratio_{key}_forced"] = round(forced_ratio, 2)
    attach(benchmark, **info)
