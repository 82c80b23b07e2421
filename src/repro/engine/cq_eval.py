"""Bound-aware conjunctive-query (rule body) evaluation — the reference interpreter.

This is the seed evaluator: a conjunction of atoms joined against stored
relations under a dictionary of variable bindings, re-planned on every call.
No evaluation strategy runs on it any more — naive and semi-naive bottom-up,
magic sets, counting, the unfolded evaluator and the one-sided schema of
Figure 9 all execute :mod:`repro.engine.compile` plans (generated kernels, or
the plan's own step machine under ``REPRO_KERNELS=off``).  What remains here:

* :func:`plan_order`, the greedy *bound-first* join order — a bound variable
  or a constant restricts the index probe on the stored relation, which is
  what makes Property 3 ("no unrestricted lookups") achievable and
  measurable — shared with :func:`repro.engine.compile.compile_rule`;
* :func:`evaluate_body` / :func:`evaluate_rule` and friends, kept as the
  *reference* the compiled plans are tested against (``tests/test_compile.py``)
  and still called by the three analysis helpers that evaluate a string once
  rather than in a loop (:mod:`repro.core.proofs`, :mod:`repro.cq.strings`,
  :mod:`repro.core.crossproduct`).

Every probe is recorded in an
:class:`~repro.engine.instrumentation.EvaluationStats`, and atoms over
predicates that have no relation are treated as empty, so partial databases
simply yield no derivations instead of crashing — the same contract the
compiled plans keep.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.relation import Relation, Row, Value
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable, is_variable
from .instrumentation import EvaluationStats

Bindings = Dict[Variable, Value]
RelationMap = Mapping[str, Relation]


def as_relation(name: str, arity: int, rows: Iterable[Row]) -> Relation:
    """Wrap a transient tuple set into an indexable :class:`Relation`.

    Transient tuple sets (a delta, a derived layer) are wrapped through this
    helper so that joins against them stay indexed.
    """
    return Relation(name, arity, rows)


def _atom_bound_columns(atom: Atom, bound: Set[Variable]) -> int:
    """How many argument positions of ``atom`` are bound under ``bound``."""
    count = 0
    for arg in atom.args:
        if isinstance(arg, Constant) or (is_variable(arg) and arg in bound):
            count += 1
    return count


def plan_order(
    atoms: Sequence[Atom],
    initially_bound: Set[Variable],
    relations: Optional[RelationMap] = None,
    first: Optional[int] = None,
) -> List[int]:
    """Greedy join order: repeatedly pick the atom with the most bound columns.

    Ties are broken by preferring smaller stored relations (when sizes are
    available) and then by textual order, which keeps plans deterministic.
    Returns the atom indexes in evaluation order.  When ``first`` is given,
    that atom is forced to the front (semi-naive plans put the delta
    occurrence first — it is the most selective input by construction) and
    the rest are planned greedily with its variables counted as bound.
    """
    remaining = list(range(len(atoms)))
    bound = set(initially_bound)
    order: List[int] = []
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound |= atoms[first].variable_set()
    while remaining:
        def sort_key(index: int) -> Tuple[int, int, int]:
            atom = atoms[index]
            bound_columns = _atom_bound_columns(atom, bound)
            size = 0
            if relations is not None and atom.predicate in relations:
                size = len(relations[atom.predicate])
            return (-bound_columns, size, index)

        best = min(remaining, key=sort_key)
        remaining.remove(best)
        order.append(best)
        bound |= atoms[best].variable_set()
    return order


def _match_rows(
    atom: Atom,
    relation: Optional[Relation],
    binding: Bindings,
    stats: Optional[EvaluationStats],
) -> List[Bindings]:
    """All extensions of ``binding`` that make ``atom`` true in ``relation``."""
    if relation is None:
        if stats is not None:
            stats.record_lookup(0, restricted=True)
        return []
    bound_columns: Dict[int, Value] = {}
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            bound_columns[position] = arg.value
        elif is_variable(arg) and arg in binding:
            bound_columns[position] = binding[arg]
    rows = relation.lookup(bound_columns)
    if stats is not None:
        stats.record_lookup(len(rows), restricted=bool(bound_columns))
    results: List[Bindings] = []
    for row in rows:
        extended = dict(binding)
        consistent = True
        for position, arg in enumerate(atom.args):
            if not is_variable(arg):
                continue
            value = row[position]
            existing = extended.get(arg)
            if existing is None:
                extended[arg] = value
            elif existing != value:
                consistent = False
                break
        if consistent:
            results.append(extended)
    return results


def evaluate_body(
    atoms: Sequence[Atom],
    relations: RelationMap,
    bindings: Optional[Bindings] = None,
    stats: Optional[EvaluationStats] = None,
    order: Optional[Sequence[int]] = None,
) -> List[Bindings]:
    """All satisfying assignments of a conjunction of atoms.

    Parameters
    ----------
    atoms:
        The conjunction (a rule body, an expansion string, ...).
    relations:
        Name → relation map covering the EDB and any already-derived IDB
        relations.  Missing predicates are treated as empty.
    bindings:
        Variables already bound (e.g. the query's "column = constant"
        selection pushed into the head).
    stats:
        Optional counter sink.
    order:
        Explicit evaluation order (atom indexes); by default a greedy
        bound-first order is planned.
    """
    initial: Bindings = dict(bindings or {})
    if order is None:
        order = plan_order(atoms, set(initial), relations)
    frontier: List[Bindings] = [initial]
    for index in order:
        atom = atoms[index]
        relation = relations.get(atom.predicate)
        next_frontier: List[Bindings] = []
        for binding in frontier:
            next_frontier.extend(_match_rows(atom, relation, binding, stats))
        frontier = next_frontier
        if not frontier:
            return []
    return frontier


def evaluate_body_project(
    atoms: Sequence[Atom],
    relations: RelationMap,
    output: Sequence[Variable],
    bindings: Optional[Bindings] = None,
    stats: Optional[EvaluationStats] = None,
) -> Set[Row]:
    """Satisfying assignments projected onto ``output`` (a set of value tuples).

    Output variables that the body never binds (possible for queries over
    partially instantiated heads) appear as ``None`` in the result tuples.
    """
    assignments = evaluate_body(atoms, relations, bindings, stats)
    result: Set[Row] = set()
    for assignment in assignments:
        result.add(tuple(assignment.get(var) for var in output))
    if stats is not None:
        stats.record_produced(len(result))
    return result


def evaluate_rule(
    rule: Rule,
    relations: RelationMap,
    bindings: Optional[Bindings] = None,
    stats: Optional[EvaluationStats] = None,
) -> Set[Row]:
    """Head tuples derived by one application of ``rule``.

    Constants in the head are emitted as-is; head variables take their values
    from the satisfying assignments of the body.
    """
    assignments = evaluate_body(rule.body, relations, bindings, stats)
    result: Set[Row] = set()
    for assignment in assignments:
        row: List[Value] = []
        grounded = True
        for arg in rule.head.args:
            if isinstance(arg, Constant):
                row.append(arg.value)
            else:
                value = assignment.get(arg)
                if value is None:
                    grounded = False
                    break
                row.append(value)
        if grounded:
            result.add(tuple(row))
    if stats is not None:
        stats.record_produced(len(result))
    return result


def evaluate_rule_with_delta(
    rule: Rule,
    relations: RelationMap,
    delta_predicate: str,
    delta_relation: Relation,
    stats: Optional[EvaluationStats] = None,
) -> Set[Row]:
    """Semi-naive rule application: one body occurrence of ``delta_predicate``
    ranges over the delta, the others over the full relations.

    For each occurrence of the delta predicate in the body, the rule is
    evaluated once with that occurrence bound to ``delta_relation``; the union
    of the results is returned.  (For linear rules there is exactly one
    occurrence, so this degenerates to the textbook delta rule.)
    """
    result: Set[Row] = set()
    occurrences = [i for i, atom in enumerate(rule.body) if atom.predicate == delta_predicate]
    for occurrence in occurrences:
        def relation_for(index: int, atom: Atom) -> Optional[Relation]:
            if index == occurrence:
                return delta_relation
            return relations.get(atom.predicate)

        # Evaluate with a per-occurrence relation override.  We reuse
        # evaluate_body by temporarily renaming the delta occurrence to a
        # reserved predicate name bound to the delta relation.
        reserved = f"__delta__{delta_predicate}"
        patched_body = list(rule.body)
        patched_body[occurrence] = Atom(reserved, rule.body[occurrence].args)
        patched_relations: Dict[str, Relation] = dict(relations)
        patched_relations[reserved] = delta_relation
        patched_rule = Rule(rule.head, tuple(patched_body))
        result |= evaluate_rule(patched_rule, patched_relations, stats=stats)
    return result
