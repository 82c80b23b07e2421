"""Tests for the naive and semi-naive fixpoint engines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database, parse_program
from repro.engine import (
    EvaluationStats,
    evaluation_strata,
    naive_evaluate,
    naive_query,
    seminaive_evaluate,
    seminaive_query,
    strongly_connected_components,
)
from repro.engine.instrumentation import query_trace
from repro.obs.profile import ProfileRecorder
from repro.testing.reference import batching
from repro.workloads import (
    canonical_two_sided,
    chain,
    edge_database,
    layered_dag,
    random_pairs,
    same_generation,
    same_generation_database,
    transitive_closure,
)


class TestStrata:
    def test_scc_of_simple_cycle(self):
        graph = {"a": {"b"}, "b": {"a"}, "c": {"a"}}
        components = strongly_connected_components(graph)
        assert ["a", "b"] in components
        assert ["c"] in components

    def test_strata_order_dependencies_first(self):
        program = parse_program(
            """
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            connected(X, Y) :- reach(X, Y).
            connected(X, Y) :- reach(Y, X).
            """
        )
        strata = evaluation_strata(program)
        flattened = [predicate for group in strata for predicate in group]
        assert flattened.index("reach") < flattened.index("connected")

    def test_mutual_recursion_grouped(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """
        )
        strata = evaluation_strata(program)
        assert ["even", "odd"] in strata


class TestTransitiveClosure:
    def test_chain_closure(self, tc_program, chain_db):
        derived = seminaive_evaluate(tc_program, chain_db)
        t = derived["t"].rows()
        # every node reaches the sink 100 through the chain and the base edge
        assert {(i, 100) for i in range(7)} == t

    def test_naive_equals_seminaive(self, tc_program, small_graph_db):
        naive = naive_evaluate(tc_program, small_graph_db)["t"].rows()
        semi = seminaive_evaluate(tc_program, small_graph_db)["t"].rows()
        assert naive == semi

    def test_cyclic_data_terminates(self, tc_program, cyclic_db):
        derived = seminaive_evaluate(tc_program, cyclic_db)
        t = derived["t"].rows()
        assert (0, 0) in t  # the cycle closes on itself
        assert (0, 3) in t

    def test_query_applies_selection(self, tc_program, chain_db):
        answers, _ = seminaive_query(tc_program, chain_db, "t", {0: 0})
        assert answers == {(0, 100)}
        answers_all, _ = seminaive_query(tc_program, chain_db, "t")
        assert len(answers_all) == 7

    def test_missing_predicate_returns_empty(self, tc_program, chain_db):
        answers, _ = seminaive_query(tc_program, chain_db, "missing")
        assert answers == set()

    def test_seeded_idb_facts_are_respected(self, tc_program):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)], "t": [(9, 9)]})
        derived = seminaive_evaluate(tc_program, database)
        assert (9, 9) in derived["t"].rows()
        assert (1, 3) in derived["t"].rows()


class TestMultiplePredicates:
    def test_same_generation(self):
        program = same_generation()
        database = same_generation_database(branching=2, depth=3)
        derived = seminaive_evaluate(program, database)
        sg = derived["sg"].rows()
        # siblings (1 and 2 are both children of the root) are in the same generation
        assert (1, 2) in sg and (2, 1) in sg
        # cousins (3 under node 1, 5 under node 2) are in the same generation
        assert (3, 5) in sg
        # a node is in the same generation as itself (via sg0)
        assert (1, 1) in sg
        # parent and child are not
        assert (0, 1) not in sg

    def test_two_strata_program(self):
        program = parse_program(
            """
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            reachable_from_root(Y) :- reach(root, Y).
            """
        )
        database = Database.from_dict({"edge": [("root", "a"), ("a", "b"), ("c", "d")]})
        derived = seminaive_evaluate(program, database)
        assert derived["reachable_from_root"].rows() == {("a",), ("b",)}

    def test_mutual_recursion_even_odd(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """
        )
        database = Database.from_dict(
            {"zero": [(0,)], "succ": [(i, i + 1) for i in range(6)]}
        )
        derived = seminaive_evaluate(program, database)
        assert derived["even"].rows() == {(0,), (2,), (4,), (6,)}
        assert derived["odd"].rows() == {(1,), (3,), (5,)}

    def test_naive_equals_seminaive_on_two_sided(self, two_sided_program):
        database = Database.from_dict(
            {
                "a": random_pairs(15, 8, seed=3),
                "b": random_pairs(6, 8, seed=4),
                "c": random_pairs(15, 8, seed=5),
            }
        )
        naive = naive_evaluate(two_sided_program, database)["t"].rows()
        semi = seminaive_evaluate(two_sided_program, database)["t"].rows()
        assert naive == semi


class TestBatchDecision:
    """The product's own choice between the columnar executor and the kernel
    loop, taken with no seam: each benchmark shape lands on its side, and
    either side derives and counts what forcing the other does."""

    @staticmethod
    def run(database):
        """``(dispatch, detail, derived rows, counters)`` of one closure."""
        stats = EvaluationStats()
        recorder = ProfileRecorder("t(X, Y)?", trace_id="batch-decision")
        with query_trace(recorder.trace_id, recorder):
            derived = seminaive_evaluate(transitive_closure(), database, stats)
        (decision,) = recorder.strata
        counters = stats.as_dict()
        counters.pop("elapsed_seconds")
        return decision.dispatch, decision.detail, derived["t"].rows(), counters

    @pytest.mark.parametrize(
        "edges, dispatch, detail",
        [
            (chain(400), "kernel-loop", "score<threshold"),
            (layered_dag(12, 60, 8), "columnar", "score>=threshold"),
        ],
        ids=["chain-400", "layered-dag-12-60-8"],
    )
    def test_each_shape_takes_its_side_and_matches_both_forced_runs(self, edges, dispatch, detail):
        database = edge_database(edges)
        product = self.run(database)
        assert product[:2] == (dispatch, detail)
        for mode, forced in (("off", ("kernel-loop", "columnar-off")), ("force", ("columnar", "forced"))):
            with batching(mode):
                pinned = self.run(database)
            assert pinned[:2] == forced
            assert pinned[2:] == product[2:], mode  # rows and EvaluationStats


class TestInstrumentation:
    def test_stats_are_populated(self, tc_program, small_graph_db):
        _answers, stats = seminaive_query(tc_program, small_graph_db, "t", {0: 0})
        assert stats.iterations >= 1
        assert stats.tuples_examined > 0
        assert stats.elapsed_seconds >= 0

    def test_naive_does_more_work_than_seminaive(self, tc_program):
        database = edge_database([(i, i + 1) for i in range(15)])
        _a1, naive_stats = naive_query(tc_program, database, "t")
        _a2, semi_stats = seminaive_query(tc_program, database, "t")
        assert naive_stats.tuples_examined >= semi_stats.tuples_examined


class TestRandomised:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_naive_equals_seminaive_on_random_graphs(self, seed):
        rng = random.Random(seed)
        database = edge_database(random_pairs(rng.randrange(5, 30), 10, seed=seed))
        program = transitive_closure()
        naive = naive_evaluate(program, database)["t"].rows()
        semi = seminaive_evaluate(program, database)["t"].rows()
        assert naive == semi

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_closure_contains_reachability(self, seed):
        edges = random_pairs(20, 8, seed=seed)
        database = edge_database(edges)
        derived = seminaive_evaluate(transitive_closure(), database)["t"].rows()
        # single edges are always present (via the exit rule b = a)
        for edge in edges:
            assert edge in derived
        # two-step paths are present
        for x, y in edges:
            for y2, z in edges:
                if y == y2:
                    assert (x, z) in derived
