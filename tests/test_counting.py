"""Tests for the counting-method baseline."""

from __future__ import annotations

import pytest

from repro.baselines import (
    counting_query,
    counting_without_counts_query,
    detect_chain_shape,
)
from repro.datalog import Database, EvaluationError, ProgramError, parse_program
from repro import answer
from repro.engine import EvaluationStats, SelectionQuery, seminaive_query
from repro.workloads import (
    canonical_two_sided,
    chain,
    cycle,
    edge_database,
    layered_dag,
    lemma_4_2_database,
    same_generation,
    transitive_closure,
)


@pytest.fixture
def two_sided_chain_db() -> Database:
    return Database.from_dict(
        {
            "a": chain(5),
            "b": [(5, "z0"), (3, "z0")],
            "c": [(f"z{i}" if i else "z0", f"z{i + 1}") for i in range(8)],
        }
    )


class TestShapeDetection:
    def test_canonical_two_sided_shape(self, two_sided_program):
        shape = detect_chain_shape(two_sided_program, "t")
        assert shape.up_predicate == "a"
        assert shape.down_predicate == "c"

    def test_canonical_one_sided_shape(self, tc_program):
        shape = detect_chain_shape(tc_program, "t")
        assert shape.up_predicate == "a"
        assert shape.down_predicate is None

    def test_rejects_other_shapes(self):
        with pytest.raises(ProgramError):
            detect_chain_shape(same_generation(), "sg")
        ternary = parse_program(
            "t(X, Y, Z) :- a(X, W), t(W, Y, Z). t(X, Y, Z) :- b(X, Y, Z)."
        )
        with pytest.raises(ProgramError):
            detect_chain_shape(ternary, "t")


class TestCountingQuery:
    def test_one_sided_acyclic(self, tc_program):
        database = edge_database(layered_dag(5, 3, 2, seed=13))
        query = SelectionQuery.of("t", 2, {0: 0})
        result = counting_query(tc_program, database, query)
        reference, _ = seminaive_query(tc_program, database, "t", {0: 0})
        assert result.answers == reference

    def test_two_sided_acyclic(self, two_sided_program, two_sided_chain_db):
        query = SelectionQuery.of("t", 2, {0: 0})
        result = counting_query(two_sided_program, two_sided_chain_db, query)
        reference, _ = seminaive_query(two_sided_program, two_sided_chain_db, "t", {0: 0})
        assert result.answers == reference

    def test_two_sided_exact_on_lemma_4_2_family_with_depth_bound(self):
        """Counting keeps the depth index, so unlike the unary-carry algorithm it
        could handle the revisits — but the Lemma 4.2 family is cyclic, so the
        method hits its termination problem instead."""
        database, _target = lemma_4_2_database(3)
        with pytest.raises(EvaluationError):
            counting_query(canonical_two_sided(), database, SelectionQuery.of("t", 2, {0: "v1"}))

    def test_cyclic_data_raises(self, two_sided_program):
        database = Database.from_dict(
            {"a": [(0, 1), (1, 0)], "b": [(0, "z0")], "c": [("z0", "z1")]}
        )
        with pytest.raises(EvaluationError):
            counting_query(two_sided_program, database, SelectionQuery.of("t", 2, {0: 0}))

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_a_reachable_cycle_refuses_within_its_size(self, tc_program, k):
        """The constant sits on a cycle of ``k`` values: the descent refuses once a
        level is as deep as the values it reached, not after a fixed depth."""
        database = edge_database(cycle(k))
        stats = EvaluationStats()
        with pytest.raises(EvaluationError, match="cyclic"):
            counting_query(tc_program, database, SelectionQuery.of("t", 2, {0: 0}), stats=stats)
        assert 1 <= stats.iterations <= k + 1

    def test_deep_acyclic_data_is_answered(self, tc_program):
        """Only a cycle refuses: a chain deeper than any fixed bound is answered."""
        database = edge_database(chain(2_500))
        result = answer(tc_program, database, "t(0, Y)?", strategy="counting")
        assert result.answers == {(0, node) for node in range(1, 2_501)}
        assert result.stats.extra["counting_levels"] == 2_502  # the last, empty level included

    def test_the_ascent_takes_one_down_step_per_level(self, monkeypatch):
        """Every ``semijoin`` on the down relation is counted, empty ones too:
        one ascent makes at most one per level, where a walk per level makes
        about depth²/2."""
        from repro.engine import algebra

        depth = 200
        database = Database.from_dict(
            {"a": chain(depth), "b": [(depth, "z0")], "c": [(f"z{i}", f"z{i + 1}") for i in range(depth)]}
        )
        semijoin, down_steps = algebra.semijoin, []

        def counted(keys, source, column, stats=None):
            if getattr(source, "name", None) == "c":
                down_steps.append(len(keys))
            return semijoin(keys, source, column, stats)

        monkeypatch.setattr(algebra, "semijoin", counted)
        result = counting_query(canonical_two_sided(), database, SelectionQuery.of("t", 2, {0: 0}))
        assert result.answers == {(0, f"z{depth}")}
        assert len(down_steps) <= depth

    def test_requires_first_column_binding(self, two_sided_program, two_sided_chain_db):
        with pytest.raises(EvaluationError):
            counting_query(two_sided_program, two_sided_chain_db, SelectionQuery.of("t", 2, {1: "z1"}))

    def test_counting_levels_reported(self, tc_program):
        database = edge_database(chain(6))
        result = counting_query(tc_program, database, SelectionQuery.of("t", 2, {0: 0}))
        assert result.stats.extra["counting_levels"] >= 6


class TestCountingWithoutCounts:
    """The end-of-Section-4 question: drop the counting fields for one-sided recursions."""

    def test_matches_counting_on_one_sided(self, tc_program):
        database = edge_database(layered_dag(4, 3, 2, seed=17))
        query = SelectionQuery.of("t", 2, {0: 0})
        with_counts = counting_query(tc_program, database, query)
        without_counts = counting_without_counts_query(tc_program, database, query)
        assert with_counts.answers == without_counts.answers

    def test_terminates_on_cyclic_data_unlike_counting(self, tc_program, cyclic_db):
        query = SelectionQuery.of("t", 2, {0: 0})
        result = counting_without_counts_query(tc_program, cyclic_db, query)
        reference, _ = seminaive_query(tc_program, cyclic_db, "t", {0: 0})
        assert result.answers == reference

    def test_rejected_on_recursions_with_a_down_chain(self, two_sided_program, two_sided_chain_db):
        with pytest.raises(EvaluationError):
            counting_without_counts_query(
                two_sided_program, two_sided_chain_db, SelectionQuery.of("t", 2, {0: 0})
            )

    def test_unary_state(self, tc_program, chain_db):
        result = counting_without_counts_query(tc_program, chain_db, SelectionQuery.of("t", 2, {0: 0}))
        assert result.stats.extra["carry_arity"] == 1


class TestConstantHeadExitRule:
    """An exit rule with a constant first head argument only fires at that value.

    Regression test: the ascend phase used to add the rule's consequences for
    *every* reached value, yielding answers semi-naive never derives.
    """

    def _program(self):
        return parse_program(
            """
            t(X, Y) :- up(X, W), t(W, Y).
            t(z9, Y) :- e(Y).
            """
        )

    def _database(self):
        return Database.from_dict({"up": [("a", "b")], "e": [("s1",), ("s2",)]})

    def test_unreachable_constant_yields_no_answers(self):
        query = SelectionQuery.of("t", 2, {0: "a"})
        result = counting_without_counts_query(self._program(), self._database(), query)
        reference, _ = seminaive_query(self._program(), self._database(), "t", {0: "a"})
        assert result.answers == reference == set()

    def test_reachable_constant_still_fires(self):
        database = Database.from_dict({"up": [("a", "z9")], "e": [("s1",), ("s2",)]})
        query = SelectionQuery.of("t", 2, {0: "a"})
        result = counting_without_counts_query(self._program(), database, query)
        reference, _ = seminaive_query(self._program(), database, "t", {0: "a"})
        assert result.answers == reference == {("a", "s1"), ("a", "s2")}
