"""Construction of the A/V graph and the full A/V graph (Section 2, Section 3).

The *argument/variable graph* of a linear recursive rule has

* a **variable node** for each variable of the rule,
* an **argument node** for each argument position in the rule *body*,
* an undirected, weight-0 **identity edge** from each argument node to the
  node of the variable occupying that position, and
* a directed, weight-1 **unification edge** from each argument node of the
  recursive body predicate to the node of the distinguished variable occupying
  the corresponding position of the rule *head*.

The **full A/V graph** (Section 3) additionally has weight-0 **predicate
edges** between adjacent argument nodes of each nonrecursive body predicate,
and drops every connected component that contains no argument node of a
nonrecursive predicate.

Paths may traverse unification edges in either direction; traversing one
backwards contributes weight −1 (Section 2).  The adjacency view exposed by
:class:`AVGraph` encodes exactly that convention, which is what the
weighted-cycle analysis in :mod:`repro.avgraph.cycles` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.atoms import Atom
from ..datalog.errors import ProgramError
from ..datalog.rules import Rule
from ..datalog.terms import Variable, is_variable

IDENTITY = "identity"
UNIFICATION = "unification"
PREDICATE = "predicate"


@dataclass(frozen=True, order=True)
class VarNode:
    """Node for a variable of the rule."""

    variable: Variable

    def label(self) -> str:
        return str(self.variable)


@dataclass(frozen=True, order=True)
class ArgNode:
    """Node for an argument position of a body predicate instance.

    ``occurrence`` numbers repeated instances of the same predicate in the
    body (0-based); ``position`` is the 0-based argument position.  The label
    follows the paper's convention (``a1`` is the first argument of ``a``),
    with a ``#k`` suffix for repeated predicate instances.
    """

    predicate: str
    occurrence: int
    position: int
    recursive: bool = False

    def label(self) -> str:
        suffix = "" if self.occurrence == 0 else f"#{self.occurrence + 1}"
        return f"{self.predicate}{suffix}{self.position + 1}"


Node = Union[VarNode, ArgNode]


@dataclass(frozen=True)
class Edge:
    """An edge of the A/V graph.

    ``weight`` is the weight of traversing the edge in its stored direction
    (``source`` → ``target``); identity and predicate edges have weight 0 and
    are undirected, unification edges have weight +1 from argument node to
    distinguished-variable node and −1 when traversed backwards.
    """

    source: Node
    target: Node
    kind: str
    weight: int = 0


@dataclass
class AVGraph:
    """An A/V graph or full A/V graph, with the traversal conventions of the paper."""

    rule: Rule
    nodes: Set[Node] = field(default_factory=set)
    edges: List[Edge] = field(default_factory=list)
    full: bool = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        self.nodes.add(node)

    def add_edge(self, source: Node, target: Node, kind: str, weight: int = 0) -> None:
        self.nodes.add(source)
        self.nodes.add(target)
        self.edges.append(Edge(source, target, kind, weight))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def argument_nodes(self) -> List[ArgNode]:
        return sorted(node for node in self.nodes if isinstance(node, ArgNode))

    def adjacency(self) -> Dict[Node, List[Tuple[Node, int, Edge]]]:
        """Traversal adjacency: both directions, with the ±1 convention for unification edges."""
        adjacency: Dict[Node, List[Tuple[Node, int, Edge]]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            adjacency[edge.source].append((edge.target, edge.weight, edge))
            adjacency[edge.target].append((edge.source, -edge.weight, edge))
        return adjacency

    def node_by_label(self, label: str) -> Node:
        """Find a node by its display label (``"X"``, ``"a1"``, ``"t2"`` ...)."""
        for node in self.nodes:
            if node.label() == label:
                return node
        raise KeyError(f"no node labelled {label!r}")

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes


def _body_argument_nodes(rule: Rule) -> List[Tuple[ArgNode, Atom]]:
    """One argument node per body argument position, paired with its atom."""
    occurrences: Dict[str, int] = {}
    result: List[Tuple[ArgNode, Atom]] = []
    head_predicate = rule.head.predicate
    for atom in rule.body:
        occurrence = occurrences.get(atom.predicate, 0)
        occurrences[atom.predicate] = occurrence + 1
        for position in range(atom.arity):
            node = ArgNode(
                predicate=atom.predicate,
                occurrence=occurrence,
                position=position,
                recursive=(atom.predicate == head_predicate),
            )
            result.append((node, atom))
    return result


def build_av_graph(rule: Rule) -> AVGraph:
    """The A/V graph of a linear recursive rule (Section 2)."""
    if not rule.is_linear_recursive():
        raise ProgramError(f"A/V graphs are defined for linear recursive rules; got {rule}")
    graph = AVGraph(rule=rule)

    for variable in sorted(rule.variables()):
        graph.add_node(VarNode(variable))

    for node, atom in _body_argument_nodes(rule):
        graph.add_node(node)
        term = atom.args[node.position]
        if is_variable(term):
            graph.add_edge(node, VarNode(term), IDENTITY, 0)
        if node.recursive:
            head_term = rule.head.args[node.position]
            if is_variable(head_term):
                graph.add_edge(node, VarNode(head_term), UNIFICATION, 1)
    return graph


def build_full_av_graph(rule: Rule) -> AVGraph:
    """The full A/V graph of a linear recursive rule (Section 3).

    Adds predicate edges between adjacent argument nodes of each nonrecursive
    body predicate instance and removes components without a nonrecursive
    argument node.
    """
    graph = build_av_graph(rule)
    graph.full = True

    # predicate edges: adjacent argument positions of the same nonrecursive instance
    by_instance: Dict[Tuple[str, int], List[ArgNode]] = {}
    for node in graph.argument_nodes():
        if node.recursive:
            continue
        by_instance.setdefault((node.predicate, node.occurrence), []).append(node)
    for instance_nodes in by_instance.values():
        instance_nodes.sort(key=lambda n: n.position)
        for left, right in zip(instance_nodes, instance_nodes[1:]):
            graph.add_edge(left, right, PREDICATE, 0)

    # remove components containing no nonrecursive argument node
    keep = _components_with_nonrecursive_arguments(graph)
    graph.nodes = {node for node in graph.nodes if node in keep}
    graph.edges = [
        edge for edge in graph.edges if edge.source in keep and edge.target in keep
    ]
    return graph


def _components_with_nonrecursive_arguments(graph: AVGraph) -> Set[Node]:
    """Nodes lying in a component that contains at least one nonrecursive argument node."""
    adjacency = graph.adjacency()
    visited: Set[Node] = set()
    keep: Set[Node] = set()
    for start in graph.nodes:
        if start in visited:
            continue
        component: Set[Node] = set()
        frontier = [start]
        visited.add(start)
        while frontier:
            node = frontier.pop()
            component.add(node)
            for neighbor, _weight, _edge in adjacency.get(node, ()):  # type: ignore[arg-type]
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        if any(isinstance(node, ArgNode) and not node.recursive for node in component):
            keep |= component
    return keep
