"""Conjunctive-query minimization.

A conjunctive query is *minimal* when no proper subset of its atoms defines
the same relation.  Minimization (folding the query onto a core) is used in
two places in the reproduction:

* Appendix A's Lemma A.7 deletes "redundant connected sets" from strings to
  turn an infinite union into a finite nonrecursive definition, and
* the redundancy-removal pipeline of Section 3 uses minimal strings when
  comparing an optimized recursion against the original.

The algorithm is the textbook one: repeatedly try to drop an atom; the drop is
valid when the original query still has a containment mapping onto the reduced
query (so the two are equivalent).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..datalog.terms import Variable
from .containment import find_containment_mapping, has_containment_mapping
from .strings import ExpansionString


def minimize(string: ExpansionString, frozen: Optional[Set[Variable]] = None) -> ExpansionString:
    """An equivalent string with a minimal set of atoms (a core of the query).

    ``frozen`` lists extra variables that must be preserved by the folding
    (beyond the distinguished variables), which callers use when the string
    will later be recombined with other atoms.
    """
    current = string
    changed = True
    while changed:
        changed = False
        for index in range(len(current.atoms)):
            candidate_atoms = current.atoms[:index] + current.atoms[index + 1 :]
            candidate_provenance = (
                current.provenance[:index] + current.provenance[index + 1 :]
                if current.provenance
                else ()
            )
            candidate = ExpansionString(current.distinguished, candidate_atoms, candidate_provenance)
            # The reduced query trivially contains the original (fewer
            # constraints).  They are equivalent iff the original maps onto
            # the reduced one.
            if find_containment_mapping(current, candidate, frozen) is not None:
                current = candidate
                changed = True
                break
    return current


def is_minimal(string: ExpansionString) -> bool:
    """``True`` when no single atom can be dropped without changing the relation."""
    return len(minimize(string).atoms) == len(string.atoms)


def minimize_union(strings: List[ExpansionString]) -> List[ExpansionString]:
    """Minimize a union of conjunctive queries.

    Each string is minimized individually, then strings subsumed by another
    string of the union are dropped (keeping the earliest witness).  This is
    the finite analogue of taking "a minimal subset of P′" in Lemma A.7.
    """
    minimized = [minimize(string) for string in strings]
    kept: List[ExpansionString] = []
    for index, candidate in enumerate(minimized):
        subsumed = False
        for other_index, other in enumerate(minimized):
            if other_index == index:
                continue
            # candidate is subsumed if its relation is contained in other's
            # relation; prefer keeping the earlier string on mutual containment.
            if not has_containment_mapping(other, candidate):
                continue
            if has_containment_mapping(candidate, other) and other_index > index:
                continue  # equivalent; keep the earlier (this one)
            subsumed = True
            break
        if not subsumed:
            kept.append(candidate)
    return kept
