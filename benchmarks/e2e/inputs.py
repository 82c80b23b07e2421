"""Seeded input generators and the benchmark's own oracle.

Nothing here imports the library under test (nor ``repro.workloads``,
``repro.testing`` or ``benchmarks/helpers.py``): the program sees only what
these generators hand it, and every answer is checked against a
breadth-first search over the generated edges, never against the engine.

Every generator keeps the *shape* of its input independent of the seed (the
same trees, the same chain, the same layer sizes and fan-out; a query stream
with the same mix in every block of eight) and lets the seed choose labels,
edge targets and which node each query names.  Runs with different seeds
therefore do the same amount of work on different data, which is what lets
ten seeds be compared as repetitions.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[Hashable, Hashable]

#: transitive closure with the recursive call on the right: one-sided, and
#: the paper's running example (``a`` and ``b`` both hold the edge set)
TC_PROGRAM = "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Forest:
    """``trees`` complete binary trees of ``depth``, string node ids.

    ``names[tree][i]`` is the id of heap position ``i`` (root 0, children of
    ``i`` at ``2i+1`` and ``2i+2``) — used only to *pick* nodes by depth;
    the oracle works from ``edges`` alone.
    """

    trees: int
    depth: int
    names: Tuple[Tuple[str, ...], ...]
    edges: Tuple[Tuple[str, str], ...]

    def at_depth(self, tree: int, depth: int) -> Tuple[str, ...]:
        return self.names[tree][2 ** depth - 1 : 2 ** (depth + 1) - 1]


def forest(seed: int, trees: int, depth: int) -> Forest:
    rng = random.Random(f"forest-{seed}")
    per_tree = 2 ** (depth + 1) - 1
    labels = list(range(trees * per_tree))
    rng.shuffle(labels)
    names = tuple(
        tuple(f"n{labels[tree * per_tree + i]:07d}" for i in range(per_tree))
        for tree in range(trees)
    )
    edges = tuple(
        (row[i], row[child])
        for row in names
        for i in range(per_tree)
        for child in (2 * i + 1, 2 * i + 2)
        if child < per_tree
    )
    return Forest(trees, depth, names, edges)


def chain(seed: int, length: int) -> List[Tuple[int, int]]:
    """A path of ``length`` edges over seed-shuffled int ids."""
    labels = list(range(length + 1))
    random.Random(f"chain-{seed}").shuffle(labels)
    return [(labels[i], labels[i + 1]) for i in range(length)]


def layered_dag(seed: int, layers: int, width: int, fanout: int) -> List[Tuple[int, int]]:
    """``layers`` layers of ``width`` int nodes; each node points at ``fanout``
    seed-chosen nodes of the next layer."""
    rng = random.Random(f"dag-{seed}")
    return [
        (layer * width + j, (layer + 1) * width + k)
        for layer in range(layers - 1)
        for j in range(width)
        for k in sorted(rng.sample(range(width), fanout))
    ]


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
def adhoc_stream(seed: int, graph: Forest, count: int) -> List[Tuple[str, str, int]]:
    """``count`` text queries as ``(text, constant, bound column)``.

    Every block of eight holds one ``t(c, Y)?`` per depth 0-3 (reach 254
    down to 30 at depth 7) and four ``t(X, c)?`` on leaves, shuffled, so the
    total work does not depend on how a seed happened to mix them.
    """
    rng = random.Random(f"adhoc-{seed}")
    shallow = min(4, graph.depth)
    stream: List[Tuple[str, str, int]] = []
    while len(stream) < count:
        block = []
        for depth in range(shallow):
            node = rng.choice(graph.at_depth(rng.randrange(graph.trees), depth))
            block.append((f"t({node}, Y)?", node, 0))
        for _ in range(shallow):
            node = rng.choice(graph.at_depth(rng.randrange(graph.trees), graph.depth))
            block.append((f"t(X, {node})?", node, 1))
        rng.shuffle(block)
        stream.extend(block)
    return stream[:count]


def zipf_ranks(seed: int, keys: int, count: int, exponent: float = 1.0) -> List[int]:
    """``count`` ranks in ``range(keys)``, rank ``r`` drawn with weight
    ``1 / (r + 1) ** exponent``."""
    rng = random.Random(f"zipf-{seed}")
    cumulative = list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(keys)))
    total = cumulative[-1]
    return [bisect_left(cumulative, rng.random() * total) for _ in range(count)]


def read_keys(seed: int, graph: Forest, keys: int) -> List[Tuple[str, int]]:
    """``keys`` distinct nodes as ``(node, tree)``, rank order = list order."""
    rng = random.Random(f"keys-{seed}")
    nodes = [(node, tree) for tree, row in enumerate(graph.names) for node in row]
    return rng.sample(nodes, min(keys, len(nodes)))


@dataclass(frozen=True)
class Commit:
    """One client transaction: rows inserted into, then deleted from, both
    ``a`` and ``b`` (so ``2 * (len(inserts) + len(deletes))`` row ops)."""

    inserts: Tuple[Tuple[str, str], ...]
    deletes: Tuple[Tuple[str, str], ...]

    @property
    def user_bytes(self) -> int:
        """UTF-8 bytes of the values this commit sends."""
        return 2 * sum(len(s.encode()) + len(t.encode()) for s, t in self.inserts + self.deletes)


def hot_parents(seed: int, graph: Forest, count: int) -> List[str]:
    """``count`` original leaves of the written trees (the first half of the
    forest) — where the write stream hangs its new leaves, and the hot read
    set of ``serve_write_burst``."""
    rng = random.Random(f"hot-{seed}")
    written = max(1, graph.trees // 2)
    leaves = [node for tree in range(written) for node in graph.at_depth(tree, graph.depth)]
    return rng.sample(leaves, min(count, len(leaves)))


def write_stream(
    seed: int, graph: Forest, parents: Sequence[str], commits: int, deletes: bool
) -> List[Commit]:
    """``commits`` transactions of eight row ops, confined to the written trees.

    With ``deletes``: three edge inserts and one edge delete per commit.
    Even commits delete an original interior edge (depth 4 -> 5, a subtree
    of ``2 ** (depth - 4) - 1`` nodes falls off) and add three new leaves;
    the next commit puts that edge back, adds two new leaves and deletes the
    oldest leaf edge the stream inserted.  Without: four new leaves per
    commit.  New leaves are fresh ``w…`` ids under ``parents``.
    """
    rng = random.Random(f"writes-{seed}")
    written = max(1, graph.trees // 2)
    cut_depth = min(4, graph.depth - 1)
    fresh = 0
    alive: deque = deque()
    pending = None
    stream: List[Commit] = []

    def new_leaf() -> Tuple[str, str]:
        nonlocal fresh
        fresh += 1
        edge = (rng.choice(parents), f"w{fresh:07d}")
        alive.append(edge)
        return edge

    for index in range(commits):
        if not deletes:
            stream.append(Commit(tuple(new_leaf() for _ in range(4)), ()))
        elif index % 2 == 0:
            tree = rng.randrange(written)
            position = rng.randrange(2 ** (cut_depth + 1) - 1, 2 ** (cut_depth + 2) - 1)
            pending = (graph.names[tree][(position - 1) // 2], graph.names[tree][position])
            stream.append(Commit(tuple(new_leaf() for _ in range(3)), (pending,)))
        else:
            inserts = (pending,) + tuple(new_leaf() for _ in range(2))
            stream.append(Commit(inserts, (alive.popleft(),)))
    return stream


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
class Mirror:
    """The benchmark's own copy of the edge set, kept in step with what it
    asked the program to store."""

    def __init__(self, edges: Iterable[Edge]) -> None:
        self.edges: Set[Edge] = set(edges)
        self.children: Dict[Hashable, Set[Hashable]] = {}
        self.parents: Dict[Hashable, Set[Hashable]] = {}
        for source, target in self.edges:
            self.children.setdefault(source, set()).add(target)
            self.parents.setdefault(target, set()).add(source)

    def apply(self, commit: Commit) -> None:
        for source, target in commit.inserts:
            self.edges.add((source, target))
            self.children.setdefault(source, set()).add(target)
            self.parents.setdefault(target, set()).add(source)
        for source, target in commit.deletes:
            self.edges.discard((source, target))
            self.children.get(source, set()).discard(target)
            self.parents.get(target, set()).discard(source)

    def _search(self, start: Hashable, step: Dict[Hashable, Set[Hashable]]) -> Set[Hashable]:
        seen: Set[Hashable] = set()
        queue = deque(step.get(start, ()))
        while queue:
            node = queue.popleft()
            if node not in seen:
                seen.add(node)
                queue.extend(step.get(node, ()))
        return seen

    def answers(self, constant: Hashable, column: int) -> Set[Edge]:
        """What ``t(c, Y)?`` (column 0) or ``t(X, c)?`` (column 1) must return."""
        if column == 0:
            return {(constant, node) for node in self._search(constant, self.children)}
        return {(node, constant) for node in self._search(constant, self.parents)}

    def closure(self) -> Set[Edge]:
        """Every ``t`` tuple: one search per node that has a child."""
        return {pair for node in self.children for pair in self.answers(node, 0)}

    def user_bytes(self) -> int:
        """UTF-8 bytes of the live EDB values (the edge set is stored twice)."""
        return 2 * sum(len(str(s).encode()) + len(str(t).encode()) for s, t in self.edges)


# ----------------------------------------------------------------------
# input pinning
# ----------------------------------------------------------------------
def digest(value: object) -> str:
    """A short stable digest of a generated input (lists/tuples of str/int)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]
