"""Same-generation queries on a family tree — the canonical *many-sided* case.

Example 3.3's same-generation recursion is the paper's running example of a
recursion that is NOT one-sided:

    sg(X, Y) :- parent(X, W), parent(Y, Z), sg(W, Z).
    sg(X, Y) :- person(X), X = Y.        % here: sg0(X, Y), the identity

This example shows what the paper recommends a query processor do in that
case: the detection pipeline refuses to claim one-sidedness, and evaluation
falls back to magic sets — which the library also implements — while plain
semi-naive plus selection serves as the reference.  It also shows the paper's
closing observation: even for a two-sided recursion, a query binding *both*
columns behaves like the one-sided case because both unbounded connected sets
contain a constant.

Run with:  python examples/genealogy_same_generation.py
"""

from __future__ import annotations

from repro import answer, detect_one_sided, parse_program, seminaive_query
from repro.baselines import magic_query
from repro.engine import SelectionQuery
from repro.workloads import same_generation_database


def main() -> None:
    program = parse_program(
        """
        sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
        sg(X, Y) :- sg0(X, Y).
        """
    )
    outcome = detect_one_sided(program, "sg")
    print(f"detection: {outcome}")
    print()

    # A 4-generation family tree with 3 children per person; p(child, parent).
    database = same_generation_database(branching=3, depth=4)
    print(f"family tree: {len(database.relation('p'))} parent edges, "
          f"{len(database.relation('sg0'))} people")

    # Who is in the same generation as person 17?
    query = SelectionQuery.of("sg", 2, {0: 17})
    chosen = answer(program, database, query)
    reference, full_stats = seminaive_query(program, database, "sg", {0: 17})
    assert chosen.answers == reference
    print(f"sg(17, Y)? -> {len(chosen.answers)} answers via {chosen.strategy}")
    print(f"  chosen strategy examined {chosen.stats.tuples_examined} tuples; "
          f"semi-naive + select examined {full_stats.tuples_examined}")

    # The fully bound query sg(13, 17)? — both sides carry a constant, so even
    # the magic-sets evaluation touches very little of the tree.
    bound_both = magic_query(program, database, SelectionQuery.of("sg", 2, {0: 13, 1: 17}))
    print(f"sg(13, 17)? -> {sorted(bound_both.answers)} via {bound_both.strategy}, "
          f"examined {bound_both.stats.tuples_examined} tuples")


if __name__ == "__main__":
    main()
