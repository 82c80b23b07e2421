"""Containment mappings between conjunctive queries (Definition 2.1, Lemma 2.1).

A mapping ``m`` from the variables of a string ``s1`` into the variables of a
string ``s2`` is a *containment mapping* if it maps distinguished variables to
themselves and maps every predicate instance of ``s1`` onto a predicate
instance of ``s2``.  By the Chandra–Merlin / Aho–Sagiv–Ullman theorem
(Lemma 2.1), the relation of ``s1`` contains the relation of ``s2`` exactly
when such a mapping from ``s1`` to ``s2`` exists — equivalently, ``s2``'s
relation is contained in ``s1``'s.

The search is a straightforward backtracking homomorphism search.  Containment
of conjunctive queries is NP-complete in general, but the strings handled here
(expansion prefixes, rewritten rules) are small, and a most-constrained-first
atom order keeps the search fast in practice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.terms import Constant, Term, Variable, is_variable
from .strings import ExpansionString

Mapping = Dict[Variable, Term]


def _candidate_targets(atom: Atom, targets: Sequence[Atom]) -> List[Atom]:
    """Target atoms that could possibly be the image of ``atom``."""
    return [t for t in targets if t.predicate == atom.predicate and t.arity == atom.arity]


def _extend(mapping: Mapping, source: Atom, target: Atom) -> Optional[Mapping]:
    """Extend ``mapping`` so that ``source`` maps onto ``target``, or fail."""
    extended = dict(mapping)
    for source_arg, target_arg in zip(source.args, target.args):
        if isinstance(source_arg, Constant):
            if source_arg != target_arg:
                return None
            continue
        assert is_variable(source_arg)
        bound = extended.get(source_arg)
        if bound is None:
            extended[source_arg] = target_arg
        elif bound != target_arg:
            return None
    return extended


def find_containment_mapping(
    source: ExpansionString,
    target: ExpansionString,
    frozen: Optional[Set[Variable]] = None,
) -> Optional[Mapping]:
    """A containment mapping from ``source`` to ``target``, or ``None``.

    Distinguished variables of ``source`` must map to themselves (they are
    pinned, along with any extra variables passed in ``frozen``).  Following
    Lemma 2.1, the existence of such a mapping proves that the relation of
    ``target`` is contained in the relation of ``source``.
    """
    pinned: Set[Variable] = set(source.distinguished) | (frozen or set())
    mapping: Mapping = {var: var for var in pinned}

    # Most-constrained-first: atoms with the fewest candidate images first.
    order = sorted(source.atoms, key=lambda atom: len(_candidate_targets(atom, target.atoms)))
    return _search(order, 0, target.atoms, pinned, mapping)


def _search(
    atoms: Sequence[Atom], position: int, targets: Sequence[Atom], pinned: Set[Variable], current: Mapping
) -> Optional[Mapping]:
    """Extend ``current`` so that ``atoms[position:]`` each map onto one of ``targets``
    (a module function, not a closure: a closure calling itself is a reference cycle)."""
    if position == len(atoms):
        return current
    source_atom = atoms[position]
    for target_atom in _candidate_targets(source_atom, targets):
        extended = _extend(current, source_atom, target_atom)
        if extended is None:
            continue
        # pinned variables must stay mapped to themselves
        if any(extended.get(var, var) != var for var in pinned):
            continue
        found = _search(atoms, position + 1, targets, pinned, extended)
        if found is not None:
            return found
    return None


def has_containment_mapping(source: ExpansionString, target: ExpansionString) -> bool:
    """``True`` when a containment mapping from ``source`` to ``target`` exists."""
    return find_containment_mapping(source, target) is not None


def is_contained_in(smaller: ExpansionString, larger: ExpansionString) -> bool:
    """``True`` when the relation of ``smaller`` ⊆ the relation of ``larger``.

    By Lemma 2.1 this holds iff there is a containment mapping from ``larger``
    to ``smaller``.
    """
    return has_containment_mapping(larger, smaller)


def are_equivalent(first: ExpansionString, second: ExpansionString) -> bool:
    """Conjunctive-query equivalence: containment in both directions."""
    return is_contained_in(first, second) and is_contained_in(second, first)


def union_contains(covering: Sequence[ExpansionString], string: ExpansionString) -> bool:
    """``True`` when the union of ``covering`` contains the relation of ``string``.

    For unions of conjunctive queries, containment of a single CQ in a union
    reduces to containment in one disjunct (Sagiv–Yannakakis [SY80]), so it is
    enough to find one covering string that maps onto ``string``.
    """
    return any(is_contained_in(string, candidate) for candidate in covering)


def union_contained_in(smaller: Sequence[ExpansionString], larger: Sequence[ExpansionString]) -> bool:
    """``True`` when the union of ``smaller`` ⊆ the union of ``larger`` (per-disjunct check)."""
    return all(union_contains(larger, string) for string in smaller)


def verify_containment_mapping(
    mapping: Mapping, source: ExpansionString, target: ExpansionString
) -> bool:
    """Check the two Definition 2.1 conditions for an explicit mapping.

    Used by property-based tests to validate mappings produced by the search.
    """
    for variable in source.distinguished:
        if mapping.get(variable, variable) != variable:
            return False
    target_atoms = set(target.atoms)
    for atom in source.atoms:
        image = atom.substitute(mapping)
        if image not in target_atoms:
            return False
    return True
