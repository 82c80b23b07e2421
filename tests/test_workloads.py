"""Tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.datalog import SchemaError
from repro.workloads import (
    ALL_CANONICAL,
    appendix_a_database,
    buys_database,
    chain,
    cycle,
    edge_database,
    layered_dag,
    lemma_4_2_database,
    permissions_database,
    random_graph,
    random_pairs,
    relations_database,
    same_generation_database,
    uniform_tree,
    unbounded_p_database,
)


class TestGraphGenerators:
    def test_chain(self):
        assert chain(3) == [(0, 1), (1, 2), (2, 3)]
        assert chain(2, start=10) == [(10, 11), (11, 12)]

    def test_cycle_closes(self):
        edges = cycle(4)
        assert (3, 0) in edges
        assert len(edges) == 4

    def test_cycle_with_offset(self):
        assert cycle(3, start=5) == [(5, 6), (6, 7), (7, 5)]

    def test_empty_generators(self):
        assert chain(0) == []
        assert uniform_tree(3, 0) == []

    def test_uniform_tree_size(self):
        edges = uniform_tree(3, 2)
        assert len(edges) == 3 + 9
        assert len({node for edge in edges for node in edge}) == 1 + 3 + 9

    def test_layered_dag_is_deterministic_and_acyclic(self):
        first = layered_dag(4, 3, 2, seed=5)
        second = layered_dag(4, 3, 2, seed=5)
        assert first == second
        assert all(source < target for source, target in first)

    def test_layered_dag_edges_join_consecutive_layers(self):
        layers, width, fanout = 5, 4, 2
        edges = layered_dag(layers, width, fanout, seed=7)
        assert all(target // width == source // width + 1 for source, target in edges)
        for source in range((layers - 1) * width):
            successors = [target for origin, target in edges if origin == source]
            assert 1 <= len(successors) <= fanout

    def test_random_graph_allows_self_loops_on_request(self):
        assert len(random_graph(3, 20, seed=1)) == 6  # every pair but the loops
        looped = random_graph(3, 20, seed=1, allow_self_loops=True)
        assert len(looped) == 9
        assert {(node, node) for node in range(3)} <= set(looped)

    def test_random_graph_determinism_and_size(self):
        edges = random_graph(10, 20, seed=3)
        assert edges == random_graph(10, 20, seed=3)
        assert len(edges) == 20
        assert all(source != target for source, target in edges)

    def test_random_pairs_respects_domain(self):
        pairs = random_pairs(15, 5, seed=1)
        assert all(0 <= x < 5 and 0 <= y < 5 for x, y in pairs)

    def test_random_generators_cap_at_domain_size(self):
        assert len(random_pairs(1000, 3, seed=2)) <= 9


class TestDatabasePackaging:
    def test_edge_database_defaults_base_to_edges(self):
        database = edge_database([(1, 2)])
        assert database.relation("a").rows() == {(1, 2)}
        assert database.relation("b").rows() == {(1, 2)}

    def test_edge_database_with_distinct_base(self):
        database = edge_database([(1, 2)], base_edges=[(9, 9)])
        assert database.relation("b").rows() == {(9, 9)}

    def test_relations_database_infers_arity(self):
        database = relations_database(a=[(1, 2)], d=[(5,)])
        assert database.relation("a").arity == 2
        assert database.relation("d").arity == 1

    def test_relations_database_rejects_empty(self):
        with pytest.raises(ValueError):
            relations_database(a=[])


class TestPaperFamilies:
    def test_lemma_4_2_target_is_derivable(self):
        from repro.engine import seminaive_query
        from repro.workloads import canonical_two_sided

        database, target = lemma_4_2_database(4)
        answers, _ = seminaive_query(canonical_two_sided(), database, "t")
        assert target in answers

    def test_buys_database_schema(self):
        database = buys_database(people=5, items=5, seed=1)
        assert database.relation("likes").arity == 2
        assert database.relation("knows").arity == 2
        assert database.relation("cheap").arity == 1

    def test_same_generation_database_has_both_naming_schemes(self):
        database = same_generation_database(branching=2, depth=2)
        for name in ("p", "sg0", "up", "down", "flat"):
            assert database.has_relation(name)

    def test_permissions_database(self):
        database = permissions_database([(1, 2), (2, 3)], permission_fraction=1.0, seed=0)
        assert len(database.relation("p")) == 9  # all pairs over 3 nodes

    def test_appendix_databases(self):
        assert appendix_a_database().has_relation("p0")
        assert unbounded_p_database().has_relation("r")

    def test_canonical_program_factories_are_consistent(self):
        for name, factory in ALL_CANONICAL.items():
            program = factory()
            assert program.rules, name
            assert len(program.idb_predicates()) >= 1, name
