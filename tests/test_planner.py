"""The paper's advice through the front door: :func:`repro.answer` runs the strategy
:func:`repro.plan_query` picks (written for the second front door ``core/planner.py`` was,
kept on the one that remains; the ladder itself is pinned in ``test_answer.py``)."""

from __future__ import annotations

import pytest

from repro import answer
from repro.datalog import Database, EvaluationError, NotOneSidedError
from repro.engine import SelectionQuery, seminaive_query
from repro.workloads import (
    buys_database,
    buys_unoptimized,
    canonical_two_sided,
    chain,
    edge_database,
    nonlinear_tc,
    relations_database,
    random_pairs,
    tc_with_permissions,
    transitive_closure,
)


class TestStrategySelection:
    def test_one_sided_recursion_uses_the_schema(self, tc_program, chain_db):
        result = answer(tc_program, chain_db, "t(0, Y)?")
        assert result.strategy.startswith("one-sided")
        assert result.answers == {(0, 100)}

    def test_two_sided_recursion_falls_back_to_magic(self, two_sided_program):
        database = relations_database(
            a=random_pairs(12, 6, seed=1), b=random_pairs(5, 6, seed=2), c=random_pairs(12, 6, seed=3)
        )
        result = answer(two_sided_program, database, "t(1, Y)?")
        assert "magic" in result.strategy
        reference, _ = seminaive_query(two_sided_program, database, "t", {0: 1})
        assert result.answers == reference

    def test_unbound_query_on_two_sided_uses_seminaive(self, two_sided_program):
        database = relations_database(
            a=random_pairs(10, 5, seed=4), b=random_pairs(4, 5, seed=5), c=random_pairs(10, 5, seed=6)
        )
        result = answer(two_sided_program, database, "t(X, Y)?")
        assert "seminaive" in result.strategy

    def test_buys_is_optimized_then_answered_one_sided(self):
        """The planner applies the Section 3 optimization before evaluating."""
        program = buys_unoptimized()
        database = buys_database(people=12, items=8, seed=3)
        result = answer(program, database, "buys(person0, Y)?")
        assert result.strategy.startswith("one-sided")
        reference, _ = seminaive_query(program, database, "buys", {0: "person0"})
        assert result.answers == reference

    def test_nonlinear_recursion_still_gets_answered(self):
        program = nonlinear_tc()
        database = edge_database(chain(5))
        result = answer(program, database, "t(0, Y)?")
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert result.answers == reference


class TestForcedStrategies:
    @pytest.mark.parametrize("strategy", ["one-sided", "magic", "seminaive", "naive"])
    def test_all_strategies_agree_on_tc(self, strategy, tc_program, small_graph_db):
        query = SelectionQuery.of("t", 2, {0: 0})
        result = answer(tc_program, small_graph_db, query, strategy=strategy)
        reference, _ = seminaive_query(tc_program, small_graph_db, "t", {0: 0})
        assert result.answers == reference

    def test_forced_one_sided_rejects_two_sided(self, two_sided_program):
        database = relations_database(a=[(1, 2)], b=[(2, 3)], c=[(3, 4)])
        with pytest.raises(NotOneSidedError):
            answer(two_sided_program, database, "t(1, Y)?", strategy="one-sided")

    def test_unknown_strategy_rejected(self, tc_program, chain_db):
        with pytest.raises(EvaluationError):
            answer(tc_program, chain_db, "t(0, Y)?", strategy="quantum")


class TestQueryForms:
    def test_accepts_query_strings_atoms_and_objects(self, tc_program, chain_db):
        from repro.datalog import parse_query

        as_string = answer(tc_program, chain_db, "t(0, Y)?")
        as_atom = answer(tc_program, chain_db, parse_query("t(0, Y)?"))
        as_query = answer(tc_program, chain_db, SelectionQuery.of("t", 2, {0: 0}))
        assert as_string.answers == as_atom.answers == as_query.answers

    def test_permissions_example(self):
        from repro.workloads import permissions_database, random_graph

        program = tc_with_permissions()
        database = permissions_database(random_graph(9, 18, seed=9), seed=9)
        result = answer(program, database, "t(1, Y)?")
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert result.answers == reference
        assert result.strategy.startswith("one-sided")
