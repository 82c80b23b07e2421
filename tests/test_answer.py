"""Tests for the query front door (:func:`repro.engine.query.answer`)."""

from __future__ import annotations

import pytest

from repro import answer, answer_query, parse_program
from repro.datalog import Database, EvaluationError
from repro.engine import SelectionQuery, seminaive_query
from repro.workloads import (
    bounded_guard_tc,
    canonical_two_sided,
    same_generation,
    transitive_closure,
)


@pytest.fixture
def tc_db() -> Database:
    return Database.from_dict({"a": [(i, i + 1) for i in range(6)], "b": [(6, 100)]})


class TestAutoRouting:
    def test_bounded_recursion_routes_to_unfolded(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(1, 2), (3, 4)]})
        result = answer(bounded_guard_tc(), database, "t(1, Y)?")
        assert result.strategy == "unfolded (auto)"
        assert result.answers == {(1, 2)}

    def test_one_sided_recursion_routes_to_schema(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?")
        assert result.strategy.startswith("one-sided")
        reference, _ = seminaive_query(transitive_closure(), tc_db, "t", {0: 0})
        assert result.answers == reference

    def test_counting_routes_on_two_sided_chain_shape(self):
        program = canonical_two_sided()
        database = Database.from_dict(
            {"a": [(0, 1), (1, 2)], "b": [(2, 3)], "c": [(3, 4), (4, 5)]}
        )
        result = answer(program, database, "t(0, Y)?")
        assert result.strategy == "counting (auto)"
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert result.answers == reference

    def test_magic_routes_when_counting_out_of_scope(self):
        program = canonical_two_sided()
        database = Database.from_dict(
            {"a": [(0, 1), (1, 2)], "b": [(2, 3)], "c": [(3, 4), (4, 5)]}
        )
        # column-1 selections are outside the counting implementation's scope
        result = answer(program, database, SelectionQuery.of("t", 2, {1: 4}))
        assert result.strategy == "magic-sets (auto)"
        reference, _ = seminaive_query(program, database, "t", {1: 4})
        assert result.answers == reference

    def test_unbound_query_falls_back_to_seminaive(self):
        program = same_generation()
        database = Database.from_dict({"p": [(1, 0), (2, 0)], "sg0": [(0, 0)]})
        result = answer(program, database, "sg(X, Y)?")
        assert result.strategy == "seminaive (auto)"
        reference, _ = seminaive_query(program, database, "sg")
        assert result.answers == reference

    def test_provenance_reports_the_rewrites(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?")
        assert result.provenance is not None
        names = [rewrite.pass_name for rewrite in result.provenance.rewrites]
        assert names == [
            "redundancy-removal",
            "boundedness-detection",
            "sidedness-classification",
            "bounded-unfolding",
        ]
        assert "sidedness-classification" in result.provenance.fired()

    def test_shared_provenance_cannot_be_edited_by_one_caller(self, tc_db):
        """The optimizer result is analysed once per program, so two answers
        publish the same provenance: it must be equal and immutable."""
        program = transitive_closure()
        first = answer(program, tc_db, "t(0, Y)?")
        second = answer(program, tc_db, "t(3, Y)?")
        assert first.provenance.rewrites == second.provenance.rewrites
        assert first.provenance.notes == second.provenance.notes
        before = first.provenance.describe()
        for attempt in (
            lambda: first.provenance.rewrites.append("mine"),
            lambda: first.provenance.notes.append("mine"),
            lambda: setattr(first.provenance, "rewrites", ()),
            lambda: setattr(first.provenance.rewrites[0], "detail", "mine"),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert second.provenance.describe() == before
        assert answer(program, tc_db, "t(5, Y)?").provenance.describe() == before

    def test_idb_exit_layer_gets_correct_answers(self):
        """The cross-product exit layer (Section 4): subsidiary IDB predicates
        must be materialized before the one-sided schema runs."""
        program = parse_program(
            """
            pair(X, Y) :- c(X), d(Y).
            t(X, Y) :- pair(X, Y).
            t(X, Y) :- a(X, W), t(W, Y).
            """
        )
        database = Database.from_dict({"c": [(1,)], "d": [(7,)], "a": [(0, 1)]})
        result = answer(program, database, "t(0, Y)?")
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert reference == {(0, 7)}
        assert result.answers == reference


class TestForcedStrategies:
    def test_forced_strategies_match_planner(self, tc_db):
        program = transitive_closure()
        query = SelectionQuery.of("t", 2, {0: 0})
        for strategy in ("naive", "seminaive", "magic", "one-sided"):
            front = answer(program, tc_db, query, strategy=strategy)
            planner = answer_query(program, tc_db, query, strategy=strategy)
            assert front.answers == planner.answers, strategy

    def test_forced_counting_runs_in_scope(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?", strategy="counting")
        reference, _ = seminaive_query(transitive_closure(), tc_db, "t", {0: 0})
        assert result.answers == reference

    def test_forced_counting_out_of_scope_raises(self, tc_db):
        with pytest.raises(EvaluationError):
            answer(transitive_closure(), tc_db, SelectionQuery.of("t", 2, {1: 3}), strategy="counting")

    def test_unknown_strategy_raises(self, tc_db):
        with pytest.raises(EvaluationError):
            answer(transitive_closure(), tc_db, "t(0, Y)?", strategy="sideways")

    def test_undefined_predicate_returns_empty(self, tc_db):
        result = answer(transitive_closure(), tc_db, "missing(0, Y)?")
        assert result.answers == set()
