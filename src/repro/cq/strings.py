"""Expansion strings as conjunctive queries.

Section 2 of the paper: the elements of an expansion are *strings* —
conjunctions of EDB predicate instances with a designated tuple of
distinguished variables.  Each string is a conjunctive query; the recursively
defined relation is the union of the relations specified by the strings.

:class:`ExpansionString` records, for every predicate instance, the iteration
on which the expansion procedure produced it and whether it came from the
nonrecursive (exit) rule — the two pieces of provenance that Definitions
3.1–3.3 and Lemma 3.1 reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..datalog.atoms import Atom, atoms_variables
from ..datalog.relation import Relation, Row
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..engine.compile import compile_rule
from ..engine.instrumentation import EvaluationStats


@dataclass(frozen=True)
class AtomProvenance:
    """Where a predicate instance in a string came from.

    Attributes
    ----------
    iteration:
        The iteration of Procedure *Expand* (Figure 1) that produced the
        instance; iteration numbering starts at 0 as in the paper.
    from_exit:
        ``True`` when the instance was produced by applying the nonrecursive
        rule (the paper frequently "removes the predicate instances produced
        by the nonrecursive rule" before counting connected sets).
    """

    iteration: int
    from_exit: bool = False


@dataclass(frozen=True)
class ExpansionString:
    """One element of an expansion: a conjunctive query over EDB predicates.

    Attributes
    ----------
    distinguished:
        The distinguished variables, in head-argument order.
    atoms:
        The predicate instances of the string, in the order the expansion
        procedure emitted them.
    provenance:
        Parallel to ``atoms``; may be empty for strings built by hand.
    """

    distinguished: Tuple[Variable, ...]
    atoms: Tuple[Atom, ...]
    provenance: Tuple[AtomProvenance, ...] = ()

    def __post_init__(self) -> None:
        if self.provenance and len(self.provenance) != len(self.atoms):
            raise ValueError("provenance must be empty or parallel to atoms")

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.atoms)

    def variables(self) -> Set[Variable]:
        """All variables appearing in the string."""
        return atoms_variables(self.atoms) | set(self.distinguished)

    def nondistinguished_variables(self) -> Set[Variable]:
        """Variables of the string that are not distinguished."""
        return atoms_variables(self.atoms) - set(self.distinguished)

    def predicates(self) -> Set[str]:
        """Predicate names used by the string."""
        return {atom.predicate for atom in self.atoms}

    def atom_indexes(self, include_exit: bool = True) -> List[int]:
        """Indexes of the atoms, optionally dropping exit-rule instances."""
        if include_exit or not self.provenance:
            return list(range(len(self.atoms)))
        return [i for i in range(len(self.atoms)) if not self.provenance[i].from_exit]

    def recursion_depth(self) -> int:
        """Number of recursive-rule applications that produced this string.

        The exit rule of string ``k`` is applied on iteration ``k`` (Figure 1),
        so the exit atoms' provenance carries the depth directly; recursive
        rules without nonrecursive atoms (e.g. ``t(X, Y) :- t(Y, X)``) are
        handled correctly this way.
        """
        if not self.provenance:
            return 0
        exit_iterations = [p.iteration for p in self.provenance if p.from_exit]
        if exit_iterations:
            return max(exit_iterations)
        iterations = [p.iteration for p in self.provenance]
        return (max(iterations) + 1) if iterations else 0

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(
        self,
        relations: Mapping[str, Relation],
        stats: Optional[EvaluationStats] = None,
        bindings: Optional[Dict[Variable, object]] = None,
    ) -> Set[Row]:
        """The relation specified by the string over the given EDB.

        Section 2: the relation for a string is the projection onto the
        distinguished variables of the satisfying assignments of its atoms.
        ``bindings`` fixes variables before the join; a distinguished variable
        bound neither there nor by any atom comes out as ``None``.
        """
        given = dict.fromkeys(set(self.distinguished) - atoms_variables(self.atoms))
        given.update(bindings or {})
        plan = compile_rule(Rule(Atom("string", self.distinguished), self.atoms), relations, bound=tuple(given))
        return plan.evaluate(relations, stats, bindings=given)

    def __str__(self) -> str:
        return ", ".join(str(atom) for atom in self.atoms) if self.atoms else "<empty string>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpansionString({self!s})"

