"""Unit tests for the instrumented relational algebra (:mod:`repro.engine.algebra`)."""

from __future__ import annotations

import pytest

from repro.datalog.relation import Relation
from repro.engine import algebra
from repro.engine.instrumentation import EvaluationStats


@pytest.fixture
def edges() -> Relation:
    return Relation("a", 2, [(1, 2), (2, 3), (3, 4), (1, 4)])


class TestSelect:
    def test_select_on_relation_uses_index(self, edges):
        stats = EvaluationStats()
        result = algebra.select(edges, {0: 1}, stats)
        assert result == {(1, 2), (1, 4)}
        assert stats.tuples_examined == 2
        assert stats.unrestricted_lookups == 0

    def test_select_without_bindings_counts_as_unrestricted(self, edges):
        stats = EvaluationStats()
        result = algebra.select(edges, {}, stats)
        assert result == set(edges)
        assert stats.unrestricted_lookups == 1

    def test_select_on_tuple_set(self):
        stats = EvaluationStats()
        result = algebra.select({(1, 2), (2, 2)}, {1: 2}, stats)
        assert result == {(1, 2), (2, 2)}

    def test_select_on_tuple_set_examines_every_row(self):
        stats = EvaluationStats()
        algebra.select({(1, 2), (2, 2), (3, 1)}, {1: 2}, stats)
        assert stats.tuples_examined == 3
        assert stats.lookups == 1
        assert stats.unrestricted_lookups == 0

    def test_select_binds_several_columns(self, edges):
        stats = EvaluationStats()
        assert algebra.select(edges, {0: 1, 1: 4}, stats) == {(1, 4)}
        assert algebra.select({(1, 4), (1, 2)}, {0: 1, 1: 4}) == {(1, 4)}
        assert stats.tuples_examined == 1

    def test_select_result_is_a_copy(self, edges):
        result = algebra.select(edges, {0: 1})
        result.add((9, 9))
        assert (9, 9) not in edges.rows()
        assert algebra.select(edges, {0: 1}) == {(1, 2), (1, 4)}


class TestSemijoin:
    def test_semijoin(self, edges):
        stats = EvaluationStats()
        result = algebra.semijoin({1, 3}, edges, 0, stats)
        assert result == {(1, 2), (1, 4), (3, 4)}
        assert stats.tuples_examined == 3

    def test_semijoin_probes_once_per_key(self, edges):
        stats = EvaluationStats()
        algebra.semijoin({1, 3, 7}, edges, 0, stats)
        assert stats.lookups == 3
        assert stats.unrestricted_lookups == 0
        assert stats.tuples_produced == 3

    def test_semijoin_on_the_second_column(self, edges):
        stats = EvaluationStats()
        result = algebra.semijoin({4}, edges, 1, stats)
        assert result == {(3, 4), (1, 4)}
        assert stats.tuples_examined == 2

    def test_semijoin_on_tuple_set_scans_it_once(self):
        stats = EvaluationStats()
        result = algebra.semijoin({1, 3}, {(1, 2), (2, 3), (3, 4)}, 0, stats)
        assert result == {(1, 2), (3, 4)}
        assert stats.lookups == 1
        assert stats.tuples_examined == 3
        assert stats.unrestricted_lookups == 0

    def test_semijoin_with_no_keys_probes_nothing(self, edges):
        stats = EvaluationStats()
        assert algebra.semijoin(set(), edges, 0, stats) == set()
        assert stats.lookups == 0
        assert stats.tuples_examined == 0

    def test_relation_and_tuple_set_agree(self, edges):
        for column in (0, 1):
            for keys in ({1}, {2, 4}, {5}):
                assert algebra.semijoin(keys, edges, column) == algebra.semijoin(
                    keys, set(edges.rows()), column
                )


class TestStats:
    def test_merge_accumulates(self):
        first = EvaluationStats(tuples_examined=5, iterations=2, peak_state_tuples=7)
        second = EvaluationStats(tuples_examined=3, iterations=1, peak_state_tuples=4)
        second.extra["carry_arity"] = 1
        merged = first.merge(second)
        assert merged.tuples_examined == 8
        assert merged.iterations == 3
        assert merged.peak_state_tuples == 7
        assert merged.extra["carry_arity"] == 1

    def test_as_dict_includes_extras(self):
        stats = EvaluationStats()
        stats.extra["magic_rules"] = 4
        flattened = stats.as_dict()
        assert flattened["magic_rules"] == 4
        assert "tuples_examined" in flattened

    def test_timer(self):
        stats = EvaluationStats()
        stats.start_timer()
        stats.stop_timer()
        assert stats.elapsed_seconds >= 0
        stats.stop_timer()  # idempotent when not running

    def test_record_state_tracks_peak(self):
        stats = EvaluationStats()
        stats.record_state(5, 10)
        stats.record_state(3, 20)
        assert stats.peak_state_tuples == 5
        assert stats.peak_state_columns == 20
