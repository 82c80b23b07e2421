"""Quickstart: detect a one-sided recursion and evaluate a selection on it.

This walks through the library's main loop in ~40 lines:

1. write a recursive Datalog definition in the paper's Prolog syntax,
2. build its full A/V graph and apply Theorem 3.1,
3. load some data,
4. answer ``column = constant`` queries with the strategy the paper recommends,
   and compare the work done against plain semi-naive evaluation.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Database,
    answer,
    build_full_av_graph,
    classify,
    describe,
    parse_program,
    seminaive_query,
)


def main() -> None:
    # 1. The canonical one-sided recursion: reachability over an edge relation.
    program = parse_program(
        """
        t(X, Y) :- a(X, Z), t(Z, Y).
        t(X, Y) :- b(X, Y).
        """
    )

    # 2. Detection: Theorem 3.1 on the full A/V graph.
    report = classify(program, "t")
    print("=== detection ===")
    print(describe(build_full_av_graph(program.linear_recursive_rule("t"))))
    print(f"verdict: {report}")
    print()

    # 3. A small database: a long chain plus a few shortcuts.
    edges = [(i, i + 1) for i in range(200)] + [(0, 50), (50, 150)]
    database = Database.from_dict({"a": edges, "b": edges})

    # 4. Query with the one-sided schema (picked automatically) ...
    result = answer(program, database, "t(0, Y)?")
    print("=== evaluation ===")
    print(f"t(0, Y)? has {len(result.answers)} answers via {result.strategy}")
    print(f"  work: {result.stats}")

    # ... and compare against evaluate-everything-then-select.
    _answers, full_stats = seminaive_query(program, database, "t", {0: 0})
    print(f"  semi-naive + select would examine {full_stats.tuples_examined} tuples "
          f"(vs {result.stats.tuples_examined} for the one-sided schema)")

    # Selections on the other column use the other direction of the schema.
    backward = answer(program, database, "t(X, 200)?")
    print(f"t(X, 200)? has {len(backward.answers)} answers via {backward.strategy}")


if __name__ == "__main__":
    main()
