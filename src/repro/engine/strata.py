"""Evaluation strata for positive Datalog programs.

Bottom-up evaluation processes IDB predicates in dependency order; mutually
recursive predicates must be evaluated jointly.  This module computes the
strongly connected components of the IDB dependency graph (Tarjan's
algorithm) and returns them in topological order, which is exactly the
evaluation schedule both the naive and the semi-naive engines use.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..datalog.rules import Program, Rule
from .compile import compiled


def strongly_connected_components(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC algorithm, iterative, deterministic ordering.

    ``graph`` maps each node to its successors.  Nodes referenced only as
    successors are treated as sinks with no outgoing edges.  The result lists
    components in reverse topological order of the condensation (i.e. a
    component appears *after* the components it depends on are reversed by the
    caller as needed); :func:`evaluation_strata` returns them dependencies
    first.
    """
    index_counter = 0
    indexes: Dict[str, int] = {}
    lowlinks: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []

    nodes = sorted(set(graph) | {succ for succs in graph.values() for succ in succs})

    def successors(node: str) -> List[str]:
        return sorted(graph.get(node, set()))

    for root in nodes:
        if root in indexes:
            continue
        work: List[tuple] = [(root, iter(successors(root)))]
        indexes[root] = index_counter
        lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in indexes:
                    indexes[successor] = index_counter
                    lowlinks[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indexes[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indexes[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def evaluation_strata(program: Program) -> List[List[str]]:
    """IDB predicate groups in bottom-up evaluation order (dependencies first).

    Each group is either a single non-recursive predicate or a maximal set of
    mutually recursive predicates.  EDB predicates never appear in the result.
    """
    idb = program.idb_predicates()
    graph: Dict[str, Set[str]] = {}
    for predicate in idb:
        dependencies = set()
        for rule in program.rules_for(predicate):
            dependencies |= {p for p in rule.body_predicates() if p in idb}
        graph[predicate] = dependencies
    components = strongly_connected_components(graph)
    # Tarjan emits components such that every component appears after the
    # components it depends on have been emitted (reverse topological order of
    # the condensation is children-first), which is already the order we want;
    # filter to IDB-only groups.
    return [component for component in components if any(p in idb for p in component)]


def stratum_rules(program: Program, group: Sequence[str]) -> Tuple[List[Rule], List[Rule], List[Rule]]:
    """``(rules, base rules, recursive rules)`` of one stratum, each in program
    order; a recursive rule's body reads a predicate of the group."""
    rules = [rule for predicate in group for rule in program.rules_for(predicate)]
    group_set = set(group)
    recursive_rules = [rule for rule in rules if not group_set.isdisjoint(rule.body_predicates())]
    return rules, [rule for rule in rules if rule not in recursive_rules], recursive_rules


def program_strata(program: Program) -> Tuple[Tuple[Tuple[str, ...], List[Rule], List[Rule], List[Rule]], ...]:
    """``(group, rules, base rules, recursive rules)`` per :func:`evaluation_strata` group
    (recursive exactly when it has recursive rules), computed once and kept on the program."""
    kept = compiled(program)
    if kept.strata is None:
        kept.strata = tuple(
            (tuple(group), *stratum_rules(program, group)) for group in evaluation_strata(program)
        )
    return kept.strata
