"""A naive Datalog evaluator: the reference the engine is tested against.

Every evaluation in the library runs on :mod:`repro.engine.compile` plans,
which read rows through :class:`~repro.datalog.relation.Relation`'s indexes;
a reference sharing the planner or those indexes would agree with a bug in
them.  This one takes plain sets of tuples, joins the atoms in written order
and backtracks.  Its only lookup structure is a dict per atom built here,
keyed on the positions already fixed when the atom is reached, and every
candidate row is matched against the whole atom again.  :func:`fixpoint` is
the least model by naive iteration of :func:`apply_rule`: no strata, no
deltas, no plans.  It imports nothing from :mod:`repro.engine` or the storage
layer (``tests/test_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..datalog.terms import Variable

Facts = Mapping[str, Iterable[Tuple[object, ...]]]
Assignment = Dict[Variable, object]


def _match(atom: Atom, row: Tuple[object, ...], assignment: Assignment) -> Optional[Assignment]:
    """``assignment`` extended so that ``atom`` reads ``row``, or ``None`` if it cannot."""
    extended = dict(assignment)
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Variable):
            if arg in extended:
                if extended[arg] != value:
                    return None
            else:
                extended[arg] = value
        elif arg.value != value:
            return None
    return extended


def solutions(
    atoms: Sequence[Atom],
    facts: Facts,
    bindings: Optional[Mapping[Variable, object]] = None,
) -> List[Assignment]:
    """Every assignment that extends ``bindings`` and makes all of ``atoms`` facts.

    A predicate missing from ``facts`` has no rows.
    """
    fixed = set(bindings or {})
    tables: List[Tuple[List[int], Dict[Tuple[object, ...], List[Tuple[object, ...]]]]] = []
    for atom in atoms:
        keyed = [i for i, arg in enumerate(atom.args) if not isinstance(arg, Variable) or arg in fixed]
        table: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for row in set(facts.get(atom.predicate, ())):
            if len(row) == len(atom.args):
                table.setdefault(tuple(row[i] for i in keyed), []).append(row)
        tables.append((keyed, table))
        fixed |= atom.variable_set()

    def extend(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(atoms):
            yield assignment
            return
        atom = atoms[index]
        keyed, table = tables[index]
        key = tuple(
            assignment[atom.args[i]] if isinstance(atom.args[i], Variable) else atom.args[i].value
            for i in keyed
        )
        for row in table.get(key, ()):
            extended = _match(atom, row, assignment)
            if extended is not None:
                yield from extend(index + 1, extended)

    return list(extend(0, dict(bindings or {})))


def apply_rule(
    rule: Rule,
    facts: Facts,
    bindings: Optional[Mapping[Variable, object]] = None,
) -> Set[Tuple[object, ...]]:
    """The head tuples one application of ``rule`` derives from ``facts``.

    A head variable that neither the body nor ``bindings`` fixes grounds no
    tuple, so such a rule derives nothing.
    """
    derived: Set[Tuple[object, ...]] = set()
    for assignment in solutions(rule.body, facts, bindings):
        row = []
        for arg in rule.head.args:
            if not isinstance(arg, Variable):
                row.append(arg.value)
            elif arg in assignment:
                row.append(assignment[arg])
            else:
                break
        else:
            derived.add(tuple(row))
    return derived


def fixpoint(program: Program, facts: Facts) -> Dict[str, Set[Tuple[object, ...]]]:
    """The least model of ``program`` over ``facts``, every predicate's rows by name.

    Applies every rule to the whole model, again and again, until a pass
    derives nothing new.
    """
    model: Dict[str, Set[Tuple[object, ...]]] = {name: set(rows) for name, rows in facts.items()}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            derived = apply_rule(rule, model)
            rows = model.setdefault(rule.head.predicate, set())
            if not derived <= rows:
                rows |= derived
                changed = True
    return model
