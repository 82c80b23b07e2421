"""E16 — generated join kernels vs. the interpreted engine, over stored values.

PR 4's claim: the per-tuple constant factor of the evaluation loop, not the
algorithmic structure, was the remaining bottleneck — so ``exec``-compiling
each plan into a fused nested loop (``repro.engine.kernels``) should speed up
*every* strategy without changing a single derived tuple or instrumentation
counter.  The engines join over the stored values as they are, so the same
closure under string ids must cost what it costs under int ids (the in-repo
mirror of the end-to-end benchmark's ``engine.domain.intern_overhead_share``).

Three workloads, riding the earlier experiments so the numbers are
comparable across PRs:

* **e12 long-chain sweep** — full semi-naive transitive closure over single
  chains of growing depth (the deepest recursions in the suite; quadratic
  output) plus the E12 forest database (broad, shallow).  This is the
  headline number: kernel semi-naive must beat the interpreted path ≥ 3×
  wall-clock with tuple-identical results, and the string-id twin of the
  deepest chain and of the forest may cost at most 1.25× the int-id run.
* **e14 unfolding** — the bounded-swap union evaluated recursion-free; the
  kernels accelerate the compiled conjunctive plans themselves.
* **e15 update stream** — the E15 forest graft/prune stream through a
  ``Session``; DRed/semi-naive maintenance joins all ride the kernels.

Every entry records ``speedup_*`` ratios in ``extra_info`` (merged into
``BENCH_e16.json``); CI fails the build when any ratio drops below 1.0.
Timings are best-of-3 per mode, interpreted mode measured on the reference
step machine (:func:`repro.testing.reference.step_machine`).
"""

from __future__ import annotations

from repro import Session
from repro.datalog import Database
from repro.engine import SelectionQuery, seminaive_evaluate
from repro.testing.reference import batching, step_machine
from repro.workloads import (
    bounded_swap,
    chain,
    edge_database,
    random_pairs,
    transitive_closure,
    uniform_tree,
)
from .helpers import attach, best_of, emit, run_once, string_ids

TC = transitive_closure()
CHAIN_LENGTHS = [100, 200, 400]
TREES = 16
TREE_DEPTH = 5




def timed_modes(function):
    """Run ``function`` under the fast runtime and the interpreted runtime.

    Returns ``(fast seconds, interpreted seconds, fast result, interpreted
    result)`` with both results produced by the same callable, so callers can
    assert tuple-identical output.  The columnar batch executor (E19's
    subject) is pinned off in both modes — this experiment isolates the
    kernels against the interpreter.
    """
    with step_machine(False), batching("off"):
        fast_time, fast_result = best_of(function)
    with step_machine(), batching("off"):
        interpreted_time, interpreted_result = best_of(function)
    return fast_time, interpreted_time, fast_result, interpreted_result


def forest_edges():
    edges = []
    for index in range(TREES):
        offset = index * 10_000
        edges.extend(
            (offset + parent, offset + child) for parent, child in uniform_tree(2, TREE_DEPTH)
        )
    return edges


def forest_database():
    return edge_database(forest_edges())


#: what the same closure may cost under string ids, relative to int ids
STRING_ID_BOUND = 1.25


def string_id_cost(edges):
    """``(int seconds, str seconds)`` of the kernel closure over ``edges``.

    Best of 7 each, the two databases taking turns so a drifting box slows both.
    """
    databases = (edge_database(edges), edge_database(string_ids(edges)))
    seconds, tuples = [[], []], [None, None]
    with step_machine(False), batching("off"):
        for _ in range(7):
            for which, database in enumerate(databases):
                elapsed, tuples[which] = best_of(
                    lambda: len(seminaive_evaluate(TC, database)["t"]), rounds=1
                )
                seconds[which].append(elapsed)
    assert tuples[0] == tuples[1]
    return min(seconds[0]), min(seconds[1])


def test_e16_long_chain_seminaive_speedup(benchmark):
    """The headline: kernel semi-naive ≥ 3× on the deepest chains, string ids at int-id cost."""

    def sweep():
        rows = []
        ratios = {}
        for length in CHAIN_LENGTHS:
            database = edge_database(chain(length))

            def closure(db=database):
                return {p: r.rows() for p, r in seminaive_evaluate(TC, db).items()}

            fast_time, interpreted_time, fast_rows, interpreted_rows = timed_modes(closure)
            assert fast_rows == interpreted_rows  # tuple-identical answers
            ratio = interpreted_time / max(fast_time, 1e-9)
            ratios[length] = ratio
            rows.append(
                [f"chain({length})", len(fast_rows["t"]),
                 round(interpreted_time * 1000, 1), round(fast_time * 1000, 1),
                 round(ratio, 2)]
            )
        return rows, ratios

    rows, ratios = run_once(benchmark, sweep)
    emit(
        "E16a: semi-naive closure, kernels vs interpreted (e12 long-chain sweep)",
        ["workload", "t tuples", "interpreted ms", "kernel ms", "speedup"],
        rows,
    )
    deepest = ratios[CHAIN_LENGTHS[-1]]
    assert deepest >= 3.0, f"kernel speedup regressed to {deepest:.2f}x on the deepest chain"
    int_seconds, str_seconds = string_id_cost(chain(CHAIN_LENGTHS[-1]))
    assert str_seconds <= STRING_ID_BOUND * int_seconds, (
        f"string ids cost {str_seconds / int_seconds:.2f}x int ids on the deepest chain"
    )
    attach(
        benchmark,
        speedup_chain_deepest=round(deepest, 2),
        speedup_chain_min=round(min(ratios.values()), 2),
        deepest_chain=CHAIN_LENGTHS[-1],
        ratio_chain_str_over_int=round(str_seconds / int_seconds, 2),
    )


def test_e16_forest_seminaive_speedup(benchmark):
    """The broad/shallow shape of the e12 forest also has to win."""
    database = forest_database()

    def closure():
        return {p: r.rows() for p, r in seminaive_evaluate(TC, database).items()}

    def compare():
        fast_time, interpreted_time, fast_rows, interpreted_rows = timed_modes(closure)
        assert fast_rows == interpreted_rows
        return interpreted_time, fast_time

    interpreted_time, fast_time = run_once(benchmark, compare)
    ratio = interpreted_time / max(fast_time, 1e-9)
    emit(
        "E16b: semi-naive closure over the e12 forest",
        ["workload", "interpreted ms", "kernel ms", "speedup"],
        [[f"forest {TREES}x depth-{TREE_DEPTH}",
          round(interpreted_time * 1000, 1), round(fast_time * 1000, 1), round(ratio, 2)]],
    )
    assert ratio >= 1.0
    int_seconds, str_seconds = string_id_cost(forest_edges())
    assert str_seconds <= STRING_ID_BOUND * int_seconds, (
        f"string ids cost {str_seconds / int_seconds:.2f}x int ids on the forest"
    )
    attach(
        benchmark,
        speedup_forest=round(ratio, 2),
        ratio_forest_str_over_int=round(str_seconds / int_seconds, 2),
    )


def test_e16_unfolded_evaluation_speedup(benchmark):
    """E14's recursion-free union: the compiled plans themselves get faster.

    The optimizer detects boundedness once (identical work in both modes and
    not what this experiment measures); the timed region is the unfolded
    *evaluation* — the pushed-down compiled joins — across a batch of
    selections over a dense value domain (≈40 tuples per index bucket), so
    each query does real inner-loop work where the fused kernels act.
    """
    from repro.optimize.passes import Optimizer, default_passes
    from repro.optimize.unfold import evaluate_unfolded

    size = 20_000
    value_domain = 500
    database = Database.from_dict(
        {
            "a": random_pairs(size, value_domain, seed=size),
            "b": random_pairs(size, value_domain, seed=size + 1),
        }
    )
    program = bounded_swap()
    definition = Optimizer(default_passes()).run(program, "t").unfolded
    assert definition is not None
    constants = sorted({row[0] for row in database.relation("a").rows()})[:48]

    def run_queries():
        answers = set()
        for constant in constants:
            rows, _stats = evaluate_unfolded(
                definition, database, SelectionQuery.of("t", 2, {0: constant})
            )
            answers |= rows
        return answers

    def compare():
        # extra rounds: this workload has the thinnest margin of the suite,
        # so buy noise-resistance with a deeper best-of
        with step_machine(False), batching("off"):
            fast_time, fast_answers = best_of(run_queries, rounds=5)
        with step_machine(), batching("off"):
            interpreted_time, interpreted_answers = best_of(run_queries, rounds=5)
        assert fast_answers == interpreted_answers
        return interpreted_time, fast_time

    interpreted_time, fast_time = run_once(benchmark, compare)
    ratio = interpreted_time / max(fast_time, 1e-9)
    emit(
        "E16c: e14 bounded-unfolding query batch (48 selections)",
        ["workload", "interpreted ms", "kernel ms", "speedup"],
        [[f"bounded_swap |a|=|b|={size}",
          round(interpreted_time * 1000, 1), round(fast_time * 1000, 1), round(ratio, 2)]],
    )
    assert ratio >= 1.0
    attach(benchmark, speedup_unfolded=round(ratio, 2))


def test_e16_update_stream_speedup(benchmark):
    """E15's DRed maintenance stream rides the kernels end to end."""
    base = forest_database()
    updates = []
    for index in range(TREES):
        offset = index * 10_000
        leaf = offset + 2 ** TREE_DEPTH
        updates.append(("insert", "a", (leaf, offset + 9_000 + index)))
        updates.append(("delete", "a", (offset, offset + 1)))

    def stream():
        session = Session(TC, base.copy())
        for op, name, row in updates:
            if op == "insert":
                session.insert(name, row)
            else:
                session.delete(name, row)
        return {p: set(r.rows()) for p, r in session.view.derived.items()}

    def compare():
        fast_time, interpreted_time, fast_state, interpreted_state = timed_modes(stream)
        assert fast_state == interpreted_state
        return interpreted_time, fast_time

    interpreted_time, fast_time = run_once(benchmark, compare)
    ratio = interpreted_time / max(fast_time, 1e-9)
    emit(
        "E16d: e15 forest graft/prune stream through a Session (DRed maintenance)",
        ["workload", "interpreted ms", "kernel ms", "speedup"],
        [[f"{len(updates)} updates over {TREES} trees",
          round(interpreted_time * 1000, 1), round(fast_time * 1000, 1), round(ratio, 2)]],
    )
    assert ratio >= 1.0
    attach(benchmark, speedup_updates=round(ratio, 2))
