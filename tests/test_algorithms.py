"""Tests for the literal Figure 7 / Figure 8 algorithm transcriptions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aho_ullman_selection, henschen_naqvi_selection
from repro.datalog import Database
from repro.engine import seminaive_query
from repro.workloads import (
    chain,
    cycle,
    edge_database,
    layered_dag,
    random_pairs,
    transitive_closure,
    uniform_tree,
)


def reference_answers(database, column, constant):
    answers, _ = seminaive_query(transitive_closure(), database, "t", {column: constant})
    other = 1 - column
    return {row[other] for row in answers}


class TestFigure7AhoUllman:
    """Selection t(X, n0): evaluate the strings right to left."""

    def test_chain(self, chain_db):
        answers, _stats = aho_ullman_selection(chain_db, 100)
        assert answers == set(range(7))

    def test_no_matching_exit_tuple(self, chain_db):
        answers, _stats = aho_ullman_selection(chain_db, 999)
        assert answers == set()

    def test_matches_seminaive_on_random_graphs(self, rng):
        for seed in range(5):
            database = edge_database(random_pairs(30, 12, seed=seed))
            constant = rng.randrange(12)
            answers, _ = aho_ullman_selection(database, constant)
            assert answers == reference_answers(database, 1, constant)

    def test_terminates_on_cycles(self, cyclic_db):
        answers, stats = aho_ullman_selection(cyclic_db, 3)
        assert answers == {0, 1, 2}
        assert stats.iterations <= 6  # Property 1: no special cycle handling needed

    def test_property_2_state_is_unary(self, chain_db):
        _answers, stats = aho_ullman_selection(chain_db, 100)
        assert stats.extra["carry_arity"] == 1

    def test_property_3_no_unrestricted_lookups(self, chain_db):
        _answers, stats = aho_ullman_selection(chain_db, 100)
        assert stats.unrestricted_lookups == 0

    def test_touches_fewer_tuples_than_full_evaluation(self):
        database = edge_database(chain(60) + [(200, 201), (201, 202)])
        _answers, selective = aho_ullman_selection(database, 202)
        _full, full_stats = seminaive_query(transitive_closure(), database, "t", {1: 202})
        assert selective.tuples_examined < full_stats.tuples_examined


class TestFigure8HenschenNaqvi:
    """Selection t(n0, Y): evaluate the strings left to right."""

    def test_chain(self, chain_db):
        answers, _stats = henschen_naqvi_selection(chain_db, 0)
        assert answers == {100}

    def test_unreachable_constant(self, chain_db):
        answers, _stats = henschen_naqvi_selection(chain_db, 999)
        assert answers == set()

    def test_depth_zero_answers_come_from_b_alone(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(5, 6)]})
        answers, _ = henschen_naqvi_selection(database, 5)
        assert answers == {6}

    def test_matches_seminaive_on_random_graphs(self, rng):
        for seed in range(5):
            database = edge_database(random_pairs(30, 12, seed=100 + seed))
            constant = rng.randrange(12)
            answers, _ = henschen_naqvi_selection(database, constant)
            assert answers == reference_answers(database, 0, constant)

    def test_terminates_on_cycles(self, cyclic_db):
        answers, stats = henschen_naqvi_selection(cyclic_db, 0)
        assert answers == {0, 1, 2, 3}
        assert stats.iterations <= 6

    def test_properties_2_and_3(self, chain_db):
        _answers, stats = henschen_naqvi_selection(chain_db, 0)
        assert stats.extra["carry_arity"] == 1
        assert stats.unrestricted_lookups == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 9))
    def test_agrees_with_seminaive_property(self, seed, constant):
        database = edge_database(random_pairs(25, 10, seed=seed))
        answers, _ = henschen_naqvi_selection(database, constant)
        assert answers == reference_answers(database, 0, constant)


def full_closure(database):
    closure, _ = seminaive_query(transitive_closure(), database, "t")
    return closure


class TestFullClosure:
    def test_matches_seminaive(self, small_graph_db):
        """The closure is the union of the Figure 8 sections, one per source."""
        reference = full_closure(small_graph_db)
        sources = {row[0] for row in small_graph_db.relation("b").rows()}
        pairs = set()
        for source in sources:
            answers, _ = henschen_naqvi_selection(small_graph_db, source)
            pairs |= {(source, y) for y in answers}
        assert pairs == reference

    def test_terminates_on_cycles(self, cyclic_db):
        pairs = full_closure(cyclic_db)
        assert (0, 0) in pairs

    @pytest.mark.parametrize(
        "edges",
        [chain(6), cycle(5), uniform_tree(2, 3), layered_dag(4, 3, 2, seed=1)],
        ids=["chain", "cycle", "tree", "layered_dag"],
    )
    def test_both_figures_cover_the_closure(self, edges):
        """Figure 7 per target and Figure 8 per source each rebuild the whole closure."""
        database = edge_database(edges)
        reference = full_closure(database)
        nodes = {node for edge in edges for node in edge}
        by_target, by_source = set(), set()
        for node in nodes:
            by_target |= {(x, node) for x in aho_ullman_selection(database, node)[0]}
            by_source |= {(node, y) for y in henschen_naqvi_selection(database, node)[0]}
        assert by_target == by_source == reference

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_selection_algorithms_are_sections_of_the_closure(self, seed):
        """Fig 7/8 answers are exactly the matching rows of the full closure."""
        database = edge_database(random_pairs(20, 8, seed=seed))
        closure = full_closure(database)
        constant = seed % 8
        au, _ = aho_ullman_selection(database, constant)
        hn, _ = henschen_naqvi_selection(database, constant)
        assert au == {x for (x, y) in closure if y == constant}
        assert hn == {y for (x, y) in closure if x == constant}
