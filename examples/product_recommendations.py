"""The paper's `buys` recursion as a product-recommendation pipeline (Section 3).

"A person buys an item if they like it and it is cheap, or if someone they
know buys it (and it is cheap)":

    buys(X, Y) :- likes(X, Y), cheap(Y).
    buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).

Written this way the recursion is two-sided, but the ``cheap(Y)`` atom of the
recursive rule is *recursively redundant* (Theorem 3.3): the exit rule already
guarantees every bought item is cheap.  The optimization pipeline removes it,
the optimized definition is one-sided, and per-person or per-item queries run
with the Figure 9 schema.

Run with:  python examples/product_recommendations.py
"""

from __future__ import annotations

from repro import answer, classify, detect_one_sided, parse_program, seminaive_query
from repro.core import recursively_redundant_predicates
from repro.workloads import buys_database


def main() -> None:
    program = parse_program(
        """
        buys(X, Y) :- likes(X, Y), cheap(Y).
        buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
        """
    )

    print("=== as written ===")
    print(f"classification: {classify(program, 'buys')}")
    print(f"Theorem 3.3 flags as recursively redundant: {recursively_redundant_predicates(program, 'buys')}")

    print()
    print("=== after the optimization pipeline ===")
    outcome = detect_one_sided(program, "buys")
    print(f"optimized recursive rule: {outcome.optimized.linear_recursive_rule('buys')}")
    print(f"verdict: {outcome}")

    database = buys_database(people=200, items=60, likes_per_person=3, knows_per_person=4, seed=11)

    print()
    print("=== queries ===")
    person_query = answer(program, database, "buys(person7, Item)?")
    items = sorted(row[1] for row in person_query.answers)
    print(f"person7 ends up buying {len(items)} items via {person_query.strategy}")
    print(f"  first few: {', '.join(items[:6])}")
    print(f"  work: {person_query.stats}")

    _reference, full_stats = seminaive_query(program, database, "buys", {0: "person7"})
    print(f"  (evaluating all of buys first would examine {full_stats.tuples_examined} tuples, "
          f"the chosen strategy examined {person_query.stats.tuples_examined})")

    item_query = answer(program, database, "buys(Person, item3)?")
    print(f"item3 is bought by {len(item_query.answers)} people via {item_query.strategy}")


if __name__ == "__main__":
    main()
