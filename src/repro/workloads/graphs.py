"""Synthetic graph/relation generators for the benchmark workloads.

The paper has no accompanying datasets (PODS 1987), so the benchmark harness
evaluates the algorithms on standard synthetic relational instances: chains,
cycles, trees, layered DAGs and sparse random graphs.  Every generator
is deterministic given its parameters (random generators take an explicit
seed), returns plain edge lists, and has a companion helper that packages the
edges into a :class:`~repro.datalog.database.Database` with the relation names
the canonical programs expect.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from ..datalog.database import Database

Edge = Tuple[int, int]


def chain(length: int, start: int = 0) -> List[Edge]:
    """A simple path ``start -> start+1 -> ... -> start+length``."""
    return [(start + i, start + i + 1) for i in range(length)]


def cycle(length: int, start: int = 0) -> List[Edge]:
    """A directed cycle of the given length (used by the termination experiments)."""
    edges = chain(length - 1, start)
    edges.append((start + length - 1, start))
    return edges


def uniform_tree(branching: int, depth: int) -> List[Edge]:
    """Edges parent → child of a uniform ``branching``-ary tree of the given depth."""
    edges: List[Edge] = []
    next_id = 1
    frontier = [0]
    for _level in range(depth):
        new_frontier: List[int] = []
        for parent in frontier:
            for _ in range(branching):
                child = next_id
                next_id += 1
                edges.append((parent, child))
                new_frontier.append(child)
        frontier = new_frontier
    return edges


def layered_dag(layers: int, width: int, fanout: int, seed: int = 0) -> List[Edge]:
    """A layered DAG: ``layers`` layers of ``width`` nodes, each node with ``fanout`` successors."""
    rng = random.Random(seed)
    edges: Set[Edge] = set()
    for layer in range(layers - 1):
        for position in range(width):
            source = layer * width + position
            for _ in range(fanout):
                target = (layer + 1) * width + rng.randrange(width)
                edges.add((source, target))
    return sorted(edges)


def random_graph(nodes: int, edges: int, seed: int = 0, allow_self_loops: bool = False) -> List[Edge]:
    """A sparse random directed graph with the requested number of distinct edges."""
    rng = random.Random(seed)
    result: Set[Edge] = set()
    attempts = 0
    limit = max(1, nodes * nodes)
    while len(result) < min(edges, limit) and attempts < 50 * edges + 100:
        attempts += 1
        source = rng.randrange(nodes)
        target = rng.randrange(nodes)
        if not allow_self_loops and source == target:
            continue
        result.add((source, target))
    return sorted(result)


def random_pairs(count: int, domain: int, seed: int = 0) -> List[Edge]:
    """``count`` distinct random pairs over ``range(domain)`` (self-pairs allowed)."""
    rng = random.Random(seed)
    result: Set[Edge] = set()
    attempts = 0
    while len(result) < min(count, domain * domain) and attempts < 50 * count + 100:
        attempts += 1
        result.add((rng.randrange(domain), rng.randrange(domain)))
    return sorted(result)


# ----------------------------------------------------------------------
# database packaging helpers
# ----------------------------------------------------------------------
def edge_database(
    edges: Sequence[Edge],
    edge_name: str = "a",
    base_name: str = "b",
    base_edges: Optional[Sequence[Edge]] = None,
) -> Database:
    """A database for the transitive-closure-style programs.

    ``edge_name`` receives the edges; ``base_name`` receives ``base_edges`` when
    given, otherwise the same edges (the common "t is the closure of a" setup,
    where the exit relation coincides with the edge relation).
    """
    database = Database()
    database.declare(edge_name, 2)
    database.declare(base_name, 2)
    for edge in edges:
        database.add_fact(edge_name, edge)
    for edge in base_edges if base_edges is not None else edges:
        database.add_fact(base_name, edge)
    return database


def relations_database(**relations: Sequence[Sequence]) -> Database:
    """A database from keyword arguments, e.g. ``relations_database(a=[(1, 2)], p=[(1,)])``."""
    database = Database()
    for name, rows in relations.items():
        rows = list(rows)
        if not rows:
            raise ValueError(f"relation {name} needs at least one tuple to infer its arity")
        database.declare(name, len(tuple(rows[0])))
        for row in rows:
            database.add_fact(name, tuple(row))
    return database
