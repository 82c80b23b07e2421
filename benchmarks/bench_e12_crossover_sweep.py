"""E12 — when does the one-sided machinery pay off?  Selectivity and size sweep.

The paper's motivation (Section 1, Section 4): selections on one-sided
recursions should be answered by the specialized algorithms because they
restrict the tuples examined to the part of the database the selection
reaches.  This experiment sweeps two dimensions the paper's argument depends
on:

* **reach** — how much of the database the query constant actually reaches
  (from a few nodes to essentially everything), locating the point where the
  one-sided schema stops being cheaper than full semi-naive evaluation; and
* **number of queries** — how many single-constant selections can be answered
  with the one-sided schema before simply materializing the whole relation
  once (and selecting from it repeatedly) becomes the better plan.

Counting-without-counts and magic sets are swept alongside as the baselines
Section 4 names.
"""

from __future__ import annotations

import pytest

from repro.baselines import counting_query, counting_without_counts_query, magic_query
from repro.core import one_sided_query
from repro.engine import QueryResult, SelectionQuery, seminaive_evaluate, seminaive_query
from repro.workloads import chain, edge_database, transitive_closure, uniform_tree
from .helpers import attach, best_of, emit, run_once

PROGRAM = transitive_closure()

# A forest of disjoint binary trees: the query constant's reach is one tree,
# so picking how many trees there are sets the selectivity.
TREES = 16
TREE_DEPTH = 5

#: timed repetitions behind every "ms" column of the sweeps (the fastest is reported)
SWEEP_ROUNDS = 5


def forest_database():
    edges = []
    for index in range(TREES):
        offset = index * 10_000
        edges.extend((offset + parent, offset + child) for parent, child in uniform_tree(2, TREE_DEPTH))
    return edge_database(edges)


def reach_sweep_rows():
    """Sweep the fraction of the database one query reaches by merging trees."""
    rows = []
    database = forest_database()
    total_edges = len(database.relation("a"))
    # bridge the roots of the first k trees so the query reaches k trees
    for reachable_trees in (1, 2, 4, 8, 16):
        bridged = database.copy()
        for index in range(reachable_trees - 1):
            bridged.add_fact("a", (index * 10_000, (index + 1) * 10_000))
            bridged.add_fact("b", (index * 10_000, (index + 1) * 10_000))
        query = SelectionQuery.of("t", 2, {0: 0})
        schema_seconds, schema = best_of(lambda: one_sided_query(PROGRAM, bridged, query), SWEEP_ROUNDS)
        semi_seconds, (_ref, semi) = best_of(lambda: seminaive_query(PROGRAM, bridged, "t", {0: 0}), SWEEP_ROUNDS)
        magic_seconds, magic = best_of(lambda: magic_query(PROGRAM, bridged, query), SWEEP_ROUNDS)
        rows.append(
            [
                f"{reachable_trees}/{TREES} trees reachable",
                len(schema.answers),
                schema.stats.tuples_examined,
                magic.stats.tuples_examined,
                semi.tuples_examined,
                round(semi.tuples_examined / max(1, schema.stats.tuples_examined), 1),
                round(schema_seconds * 1e3, 3),
                round(magic_seconds * 1e3, 3),
                round(semi_seconds * 1e3, 3),
                round(semi_seconds / schema_seconds, 1),
            ]
        )
    return rows, total_edges


def test_e12_reach_sweep(benchmark):
    rows, total_edges = run_once(benchmark, reach_sweep_rows)
    emit(
        f"E12a: one query, increasing reach (forest of {TREES} trees, {total_edges} edges; "
        f"ms = best of {SWEEP_ROUNDS})",
        ["reach", "answers", "schema tuples", "magic tuples", "semi-naive tuples", "semi/schema tuples",
         "schema ms", "magic ms", "semi-naive ms", "semi/schema ms"],
        rows,
    )
    ratios = [row[5] for row in rows]
    assert ratios[0] > 5  # narrow queries win big
    assert ratios == sorted(ratios, reverse=True)  # the advantage shrinks as reach grows
    assert ratios[-1] >= 0.5  # even at full reach the schema is not catastrophically worse
    # the same claim on the clock: what the tuple counts promise, the seconds deliver
    seconds_ratios = [row[9] for row in rows]
    assert seconds_ratios[0] > 5 and seconds_ratios[0] > seconds_ratios[-1]
    assert seconds_ratios[-1] >= 0.5
    attach(
        benchmark,
        best_ratio=ratios[0],
        worst_ratio=ratios[-1],
        best_seconds_ratio=seconds_ratios[0],
        worst_seconds_ratio=seconds_ratios[-1],
        schema_ms_by_reach=[row[6] for row in rows],
        seminaive_ms_by_reach=[row[8] for row in rows],
    )


def amortization_rows():
    """How many distinct selections before materializing everything wins?"""
    database = forest_database()
    roots = [index * 10_000 for index in range(TREES)]

    # cost of materializing the whole relation once
    from repro.engine import EvaluationStats

    stats = EvaluationStats()
    seminaive_evaluate(PROGRAM, database, stats)
    materialize_cost = stats.tuples_examined
    materialize_seconds, _derived = best_of(lambda: seminaive_evaluate(PROGRAM, database), SWEEP_ROUNDS)

    per_query_costs, per_query_seconds = [], []
    for root in roots:
        query = SelectionQuery.of("t", 2, {0: root})
        seconds, result = best_of(lambda: one_sided_query(PROGRAM, database, query), SWEEP_ROUNDS)
        per_query_costs.append(result.stats.tuples_examined)
        per_query_seconds.append(seconds)
    average_query_cost = sum(per_query_costs) / len(per_query_costs)
    average_query_seconds = sum(per_query_seconds) / len(per_query_seconds)

    rows = []
    for queries in (1, 2, 4, 8, 16):
        schema_total = average_query_cost * queries
        schema_seconds = average_query_seconds * queries
        rows.append([queries, round(schema_total), materialize_cost,
                     "schema" if schema_total < materialize_cost else "materialize",
                     round(schema_seconds * 1e3, 3), round(materialize_seconds * 1e3, 3),
                     "schema" if schema_seconds < materialize_seconds else "materialize"])
    return rows, materialize_cost / average_query_cost, materialize_seconds / average_query_seconds


def test_e12_amortization_sweep(benchmark):
    rows, crossover, seconds_crossover = run_once(benchmark, amortization_rows)
    emit(
        "E12b: N single-constant queries via the schema vs materializing t once",
        ["queries", "schema total tuples", "materialize-once tuples", "winner by tuples",
         "schema total ms", "materialize-once ms", "winner by ms"],
        rows,
    )
    # a single selection never justifies materializing everything, counted either way
    assert rows[0][3] == rows[0][6] == "schema"
    print(f"  crossover at roughly {crossover:.1f} queries by tuples, {seconds_crossover:.1f} by seconds "
          f"(each query touches ~1/{TREES} of the data)")
    attach(
        benchmark,
        crossover_queries=round(crossover, 1),
        crossover_queries_by_seconds=round(seconds_crossover, 1),
    )
    assert crossover > 4 and seconds_crossover > 4


@pytest.mark.parametrize("strategy", ["one-sided", "counting-without-counts", "magic", "seminaive"])
def test_e12_single_query_strategies(benchmark, strategy):
    """Wall-clock comparison of the strategies on one narrow query over the forest."""
    database = forest_database()
    query = SelectionQuery.of("t", 2, {0: 0})

    def run():
        if strategy == "one-sided":
            return one_sided_query(PROGRAM, database, query).answers
        if strategy == "counting-without-counts":
            return counting_without_counts_query(PROGRAM, database, query).answers
        if strategy == "magic":
            return magic_query(PROGRAM, database, query).answers
        answers, _ = seminaive_query(PROGRAM, database, "t", {0: 0})
        return answers

    answers = run_once(benchmark, run)
    reference, _ = seminaive_query(PROGRAM, database, "t", {0: 0})
    assert answers == reference
    attach(benchmark, answers=len(answers))


#: timed repetitions per strategy on the single-query row (the fastest is reported)
SINGLE_QUERY_ROUNDS = 25


def single_query_rows():
    """Tuples examined *and* wall-clock seconds per strategy, one narrow query."""
    database = forest_database()
    query = SelectionQuery.of("t", 2, {0: 0})

    def seminaive(program, database, query):
        answers, stats = seminaive_query(program, database, "t", query.bindings_dict())
        return QueryResult(query, answers, stats)

    rows = []
    for name, strategy in (
        ("schema", one_sided_query),
        ("counting", counting_query),
        ("magic", magic_query),
        ("seminaive", seminaive),
    ):
        seconds, result = best_of(lambda: strategy(PROGRAM, database, query), SINGLE_QUERY_ROUNDS)
        rows.append([name, len(result.answers), result.stats.tuples_examined, seconds])
    return rows


def test_e12_single_query_seconds_beside_tuples(benchmark):
    """ROADMAP item 2's target as a recorded number: the schema examines the fewest
    tuples *and* is no slower than counting on the E12 single query."""
    rows = run_once(benchmark, single_query_rows)
    emit(
        f"E12d: one narrow query over the forest, tuples and seconds (best of {SINGLE_QUERY_ROUNDS})",
        ["strategy", "answers", "tuples examined", "ms"],
        [[name, answers, tuples, round(seconds * 1e3, 3)] for name, answers, tuples, seconds in rows],
    )
    assert len({answers for _name, answers, _tuples, _seconds in rows}) == 1
    tuples = {name: examined for name, _answers, examined, _seconds in rows}
    seconds = {name: elapsed for name, _answers, _examined, elapsed in rows}
    assert tuples["schema"] == min(tuples.values())
    attach(
        benchmark,
        **{f"{name}_tuples": examined for name, examined in tuples.items()},
        **{f"{name}_seconds": round(elapsed, 7) for name, elapsed in seconds.items()},
    )
    assert seconds["schema"] <= seconds["counting"]


def test_e12_long_chain_scaling(benchmark):
    """Scaling in the depth of the recursion rather than the breadth of the data.

    A chain is the thinnest carry there is — one row per round, 1,600 rounds at
    the deep end — so it is also where a join per *round* could lose to
    counting's plain level loop; the seconds say it does not.
    """
    def build():
        rows = []
        for length in (100, 400, 1600):
            database = edge_database(chain(length))
            query = SelectionQuery.of("t", 2, {0: 0})
            schema_seconds, schema = best_of(lambda: one_sided_query(PROGRAM, database, query), SWEEP_ROUNDS)
            counting_seconds, counting = best_of(lambda: counting_query(PROGRAM, database, query), SWEEP_ROUNDS)
            assert schema.answers == counting.answers
            rows.append([length, schema.stats.tuples_examined, schema.stats.iterations,
                         schema.stats.peak_state_tuples, schema_seconds, counting_seconds])
        return rows

    rows = run_once(benchmark, build)
    emit(
        f"E12c: recursion depth scaling (single chain, query at the head; ms = best of {SWEEP_ROUNDS})",
        ["chain length", "tuples examined", "iterations", "peak state", "schema ms", "counting ms"],
        [row[:4] + [round(row[4] * 1e3, 3), round(row[5] * 1e3, 3)] for row in rows],
    )
    # work grows linearly with the depth, never quadratically
    assert rows[-1][1] <= 2 * rows[-1][0] + 10
    deepest, *_counts, schema_seconds, counting_seconds = rows[-1]
    attach(
        benchmark,
        deepest=deepest,
        deepest_schema_seconds=round(schema_seconds, 7),
        deepest_counting_seconds=round(counting_seconds, 7),
    )
    assert schema_seconds <= counting_seconds  # thin carry never loses
