"""Weighted-cycle analysis of A/V graphs.

Theorem 3.1 classifies a single-linear-rule recursion by looking at the
connected components of its full A/V graph:

* a component "has a cycle of nonzero weight" when some closed walk through it
  has nonzero total weight, and
* one-sidedness additionally requires that the (unique) such component has a
  cycle of weight 1.

Because closed walks compose and reverse (reversal negates the weight), the
set of closed-walk weights through any node of a connected component is a
subgroup ``g·ℤ`` of the integers.  ``g`` is computed with breadth-first
potentials: fix a root, assign each node the weight of some walk from the
root, and take the gcd of the *residuals* ``|φ(u) + w(u→v) − φ(v)|`` over all
edges of the component.  Then

* ``g = 0``  ⇔ every cycle of the component has weight 0,
* ``g ≠ 0``  ⇔ the component has a cycle of nonzero weight, and
* ``g = 1``  ⇔ the component has a cycle of weight 1,

which are exactly the three facts Theorems 3.1 and 3.3 need.  The same
potentials also give, for any two nodes ``u, v`` in a component, the full set
of achievable walk weights ``(φ(v) − φ(u)) + g·ℤ`` — the quantity Facts
2.1/2.2 and Lemma 3.1 reason about; tests use it to cross-validate the
structural analysis against concrete expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.terms import Variable
from .build import ArgNode, AVGraph, Node, VarNode


@dataclass
class ComponentAnalysis:
    """Everything Theorems 3.1/3.3 need to know about one connected component."""

    #: the nodes of the component
    nodes: Set[Node]
    #: gcd of closed-walk weights (0 when every cycle has weight 0)
    cycle_gcd: int
    #: BFS potentials relative to an arbitrary root (walk weights root → node)
    potentials: Dict[Node, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # the predicates Theorems 3.1 / 3.3 test
    # ------------------------------------------------------------------
    @property
    def has_nonzero_weight_cycle(self) -> bool:
        """``True`` when some closed walk of the component has nonzero weight."""
        return self.cycle_gcd != 0

    @property
    def has_weight_one_cycle(self) -> bool:
        """``True`` when the component has a closed walk of weight exactly 1."""
        return self.cycle_gcd == 1

    def contains_variable(self, variable: Variable) -> bool:
        """``True`` when the node for ``variable`` lies in this component."""
        return VarNode(variable) in self.nodes

    def nondistinguished_variables(self, distinguished: Set[Variable]) -> Set[Variable]:
        """Variables of the component that are not distinguished."""
        return {
            node.variable
            for node in self.nodes
            if isinstance(node, VarNode) and node.variable not in distinguished
        }

    def has_nondistinguished_variable(self, distinguished: Set[Variable]) -> bool:
        """``True`` when the component contains a node for a nondistinguished variable."""
        return bool(self.nondistinguished_variables(distinguished))

    def nonrecursive_predicates(self) -> Set[Tuple[str, int]]:
        """(predicate, occurrence) pairs of nonrecursive instances with argument nodes here."""
        return {
            (node.predicate, node.occurrence)
            for node in self.nodes
            if isinstance(node, ArgNode) and not node.recursive
        }

    def argument_nodes(self) -> List[ArgNode]:
        """Argument nodes of the component, sorted."""
        return sorted(node for node in self.nodes if isinstance(node, ArgNode))

    def walk_weights(self, source: Node, target: Node) -> Tuple[int, int]:
        """The achievable walk weights from ``source`` to ``target``.

        Returns ``(base, gcd)`` meaning the weight set is ``base + gcd·ℤ``
        (``gcd = 0`` means exactly one achievable weight).  Raises ``KeyError``
        when either node lies outside the component.
        """
        base = self.potentials[target] - self.potentials[source]
        return base, self.cycle_gcd

    def labels(self) -> List[str]:
        """Node labels, sorted — convenient for tests and rendering."""
        return sorted(node.label() for node in self.nodes)


def analyze_components(graph: AVGraph) -> List[ComponentAnalysis]:
    """Connected components of an A/V graph with their cycle-weight subgroup."""
    adjacency = graph.adjacency()
    visited: Set[Node] = set()
    components: List[ComponentAnalysis] = []
    for start in sorted(graph.nodes, key=lambda node: node.label()):
        if start in visited:
            continue
        potentials: Dict[Node, int] = {start: 0}
        frontier: List[Node] = [start]
        visited.add(start)
        cycle_gcd = 0
        while frontier:
            node = frontier.pop()
            for neighbor, weight, _edge in adjacency.get(node, ()):  # type: ignore[arg-type]
                candidate = potentials[node] + weight
                if neighbor not in potentials:
                    potentials[neighbor] = candidate
                    visited.add(neighbor)
                    frontier.append(neighbor)
                else:
                    residual = abs(candidate - potentials[neighbor])
                    if residual:
                        cycle_gcd = gcd(cycle_gcd, residual)
        components.append(
            ComponentAnalysis(nodes=set(potentials), cycle_gcd=cycle_gcd, potentials=potentials)
        )
    return components


def components_with_nonzero_cycles(graph: AVGraph) -> List[ComponentAnalysis]:
    """The components whose cycle-weight subgroup is nontrivial."""
    return [component for component in analyze_components(graph) if component.has_nonzero_weight_cycle]


def simple_cycles(graph: AVGraph) -> List[Tuple[frozenset, int]]:
    """All simple cycles of the graph, as ``(node set, |weight|)`` pairs.

    A simple cycle visits each node at most once (start = end) and each edge
    at most once; cycles of length 2 through a pair of parallel edges (an
    identity edge plus a unification edge between the same argument and
    variable node — the commonest source of weight-1 cycles in A/V graphs) are
    included.  The weight is reported as an absolute value because reversing a
    cycle negates it.

    Theorem 3.3 needs cycles through specific nodes (nondistinguished-variable
    nodes), which the aggregate gcd of :func:`analyze_components` cannot
    express; A/V graphs are small (one node per variable and body argument
    position), so explicit enumeration is cheap.
    """
    adjacency = graph.adjacency()
    node_order = {node: index for index, node in enumerate(sorted(graph.nodes, key=lambda n: n.label()))}
    cycles: Dict[Tuple[frozenset, frozenset], int] = {}

    def walk(start: Node, node: Node, weight: int, visited: List[Node], used_edges: Set[int]) -> None:
        for neighbor, edge_weight, edge in adjacency.get(node, ()):  # type: ignore[arg-type]
            edge_id = id(edge)
            if edge_id in used_edges:
                continue
            if neighbor == start and len(visited) >= 2:
                key = (frozenset(visited), frozenset(used_edges | {edge_id}))
                cycles.setdefault(key, abs(weight + edge_weight))
                continue
            if neighbor in visited or node_order[neighbor] < node_order[start]:
                continue
            walk(start, neighbor, weight + edge_weight, visited + [neighbor], used_edges | {edge_id})

    for start in sorted(graph.nodes, key=lambda n: node_order[n]):
        walk(start, start, 0, [start], set())

    return [(nodes, weight) for (nodes, _edges), weight in cycles.items()]


def nonzero_cycle_nodes(graph: AVGraph) -> Set[Node]:
    """Nodes lying on at least one simple cycle of nonzero weight."""
    result: Set[Node] = set()
    for nodes, weight in simple_cycles(graph):
        if weight != 0:
            result |= set(nodes)
    return result


def component_containing_predicate(
    graph: AVGraph, predicate: str, occurrence: int = 0
) -> Optional[ComponentAnalysis]:
    """The component holding the argument nodes of a given body predicate instance.

    Full A/V graph construction never splits the argument nodes of one
    instance across components (they are chained by predicate edges), so the
    first match identifies the component.
    """
    for component in analyze_components(graph):
        for node in component.nodes:
            if isinstance(node, ArgNode) and node.predicate == predicate and node.occurrence == occurrence:
                return component
    return None
