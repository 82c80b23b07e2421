"""End-to-end integration tests: every strategy agrees on every canonical workload.

These tests exercise the whole stack the way a user of the library would:
parse a program, detect its class, pick (or force) an evaluation strategy and
compare the answers across strategies.  They are the repository's strongest
regression net because any divergence between the specialized algorithms and
the reference semantics shows up here.
"""

from __future__ import annotations

import pytest

from repro.baselines import counting_query, magic_query
from repro import answer
from repro.core import detect_one_sided, one_sided_query
from repro.datalog import Database, ReproError, parse_program
from repro.engine import SelectionQuery, naive_query, seminaive_query
from repro.workloads import (
    buys_database,
    buys_unoptimized,
    canonical_two_sided,
    edge_database,
    example_3_4,
    layered_dag,
    permissions_database,
    random_graph,
    random_pairs,
    relations_database,
    same_generation_distinct_parents,
    tc_with_permissions,
    transitive_closure,
)

# (name, program factory, predicate, database factory, queries to try)
SCENARIOS = [
    (
        "transitive_closure",
        transitive_closure,
        "t",
        lambda: edge_database(layered_dag(5, 4, 2, seed=31)),
        [{0: 0}, {1: 17}, {0: 3, 1: 17}],
    ),
    (
        "tc_with_permissions",
        tc_with_permissions,
        "t",
        lambda: permissions_database(random_graph(10, 22, seed=32), seed=32),
        [{0: 0}, {1: 4}],
    ),
    (
        "example_3_4",
        example_3_4,
        "t",
        lambda: relations_database(
            e=random_pairs(22, 9, seed=33),
            d=[(value,) for value in range(5)],
            t0=[(i % 9, (i * 3) % 9, (i * 5) % 9) for i in range(12)],
        ),
        [{0: 1}, {1: 2}, {2: 3}],
    ),
    (
        "buys",
        buys_unoptimized,
        "buys",
        lambda: buys_database(people=18, items=12, seed=34),
        [{0: "person1"}, {1: "item3"}],
    ),
    (
        "canonical_two_sided",
        canonical_two_sided,
        "t",
        lambda: relations_database(
            a=random_pairs(18, 9, seed=35),
            b=random_pairs(7, 9, seed=36),
            c=random_pairs(18, 9, seed=37),
        ),
        [{0: 1}, {1: 5}],
    ),
    (
        "same_generation_distinct",
        same_generation_distinct_parents,
        "sg",
        lambda: relations_database(
            up=random_pairs(16, 8, seed=38),
            down=random_pairs(16, 8, seed=39),
            flat=random_pairs(8, 8, seed=40),
        ),
        [{0: 2}, {1: 6}],
    ),
]


@pytest.mark.parametrize("name, program_factory, predicate, db_factory, queries", SCENARIOS)
def test_strategies_agree(name, program_factory, predicate, db_factory, queries):
    program = program_factory()
    database = db_factory()
    arity = program.arity_of(predicate)
    for bindings in queries:
        query = SelectionQuery.of(predicate, arity, bindings)
        reference, _ = seminaive_query(program, database, predicate, bindings)

        auto = answer(program, database, query)
        assert auto.answers == reference, f"{name}: auto strategy diverged on {query}"

        naive, _ = naive_query(program, database, predicate, bindings)
        assert naive == reference, f"{name}: naive diverged on {query}"

        magic = magic_query(program, database, query)
        assert magic.answers == reference, f"{name}: magic diverged on {query}"

        outcome = detect_one_sided(program, predicate)
        if outcome.one_sided:
            schema = one_sided_query(outcome.optimized, database, query)
            assert schema.answers == reference, f"{name}: one-sided schema diverged on {query}"


@pytest.mark.parametrize("name, program_factory, predicate, db_factory, queries", SCENARIOS)
def test_detection_matches_paper_classification(name, program_factory, predicate, db_factory, queries):
    expected_one_sided = {
        "transitive_closure": True,
        "tc_with_permissions": True,
        "example_3_4": True,
        "buys": True,  # after redundancy removal
        "canonical_two_sided": False,
        "same_generation_distinct": False,
    }
    outcome = detect_one_sided(program_factory(), predicate)
    assert outcome.one_sided == expected_one_sided[name]


def test_counting_agrees_where_applicable():
    program = transitive_closure()
    database = edge_database(layered_dag(5, 3, 2, seed=41))
    query = SelectionQuery.of("t", 2, {0: 0})
    reference, _ = seminaive_query(program, database, "t", {0: 0})
    assert counting_query(program, database, query).answers == reference


def test_user_written_program_end_to_end():
    """A scenario written the way the README shows: parse, detect, query."""
    program = parse_program(
        """
        % flights reachable from a hub, with a direct-flight base case
        reachable(City, Dest) :- flight(City, Stop), reachable(Stop, Dest).
        reachable(City, Dest) :- flight(City, Dest).
        """
    )
    database = Database.from_dict(
        {
            "flight": [
                ("msn", "ord"),
                ("ord", "jfk"),
                ("jfk", "cdg"),
                ("cdg", "nrt"),
                ("sfo", "ord"),
            ]
        }
    )
    outcome = detect_one_sided(program, "reachable")
    assert outcome.one_sided
    result = answer(program, database, "reachable(msn, Dest)?")
    assert {row[1] for row in result.answers} == {"ord", "jfk", "cdg", "nrt"}
    backwards = answer(program, database, "reachable(City, nrt)?")
    assert {row[0] for row in backwards.answers} == {"msn", "ord", "jfk", "cdg", "sfo"}


def test_error_handling_is_uniform():
    """Every public entry point raises ReproError subclasses, never bare exceptions."""
    program = transitive_closure()
    database = edge_database([(1, 2)])
    with pytest.raises(ReproError):
        answer(program, database, "t(1, 2, 3)?")
    with pytest.raises(ReproError):
        answer(program, database, "t(1, Y)?", strategy="bogus")
