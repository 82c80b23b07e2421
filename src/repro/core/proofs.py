"""Proof extraction and the Lemma 4.1 / 4.2 separation.

Section 4 separates one-sided from many-sided recursions by looking at
*proofs* (derivations): a string of the expansion with each variable replaced
by a constant so that every instantiated predicate instance is a database
fact.

* **Lemma 4.1** — for the canonical one-sided recursion, every derivable tuple
  has a proof in which no constant appears more than once in a given column of
  ``a``; this is what makes the ``carry − seen`` deduplication of Figures 7–9
  lossless.
* **Lemma 4.2** — for the canonical two-sided recursion there are databases
  (one per ``k``) whose only proof of some tuple repeats a constant ``k``
  times in a column of ``a``; any algorithm whose inter-iteration state is
  just "which values have appeared" must therefore lose answers.

This module provides the pieces the E5 benchmark needs:

* :func:`find_proof` — a breadth-first proof search that returns a shallowest
  proof of a tuple (and, for chain-shaped one-sided recursions, therefore a
  repetition-free one),
* :func:`column_repetition_width` — the per-column constant-repetition count
  Lemmas 4.1/4.2 talk about, and
* :func:`lossy_unary_carry_evaluation` — the "Property 2 only" evaluation of
  the canonical two-sided recursion (unary carry, dedup against ``seen``),
  which is exact on one-sided inputs but provably incomplete on the Lemma 4.2
  family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.relation import Row, Value
from ..datalog.rules import Program
from ..datalog.terms import Constant, Variable, is_variable
from ..engine import algebra
from ..engine.instrumentation import EvaluationStats
from ..expansion.generator import expand
from ..cq.strings import ExpansionString


@dataclass
class Proof:
    """A grounded expansion string proving one tuple.

    Attributes
    ----------
    tuple_proved:
        The IDB tuple the proof derives.
    string:
        The expansion string that was instantiated.
    facts:
        The grounded predicate instances, parallel to ``string.atoms``.
    depth:
        Number of recursive-rule applications in the string.
    """

    tuple_proved: Row
    string: ExpansionString
    facts: List[Atom]
    depth: int

    def facts_for(self, predicate: str) -> List[Atom]:
        """The grounded instances of ``predicate`` used by the proof (with duplicates)."""
        return [fact for fact in self.facts if fact.predicate == predicate]

    def __str__(self) -> str:
        body = ", ".join(str(fact) for fact in self.facts)
        return f"{self.tuple_proved} :- {body}"


def find_proof(
    program: Program,
    predicate: str,
    target: Row,
    database: Database,
    max_depth: int = 64,
) -> Optional[Proof]:
    """A shallowest proof of ``target`` in the given database, or ``None``.

    The search instantiates expansion strings of increasing recursion depth
    with the target tuple substituted for the distinguished variables and
    stops at the first depth that yields a satisfying assignment.  Because the
    depth is minimal, proofs of chain-shaped recursions never revisit a
    constant needlessly — which is exactly the proof Lemma 4.1 constructs by
    splicing.
    """
    relations = {relation.name: relation for relation in database.relations()}
    strings = expand(program, predicate, max_depth)
    for string in strings:
        bindings = dict(zip(string.distinguished, target))
        variables = tuple(sorted(string.variables()))
        grounded = ExpansionString(variables, string.atoms).evaluate(relations, bindings=bindings)
        if not grounded:
            continue
        # any satisfying assignment proves the target; take a fixed one
        assignment = dict(zip(variables, min(grounded, key=repr)))
        facts = [
            atom.substitute({v: Constant(val) for v, val in assignment.items()})
            for atom in string.atoms
        ]
        return Proof(
            tuple_proved=tuple(target),
            string=string,
            facts=facts,
            depth=string.recursion_depth(),
        )
    return None


def column_repetition_width(proof: Proof, predicate: str) -> int:
    """Maximum number of times any constant appears in a single column of ``predicate``.

    Lemma 4.1 asserts this is 1 for (suitably chosen proofs of) the canonical
    one-sided recursion; Lemma 4.2 exhibits databases forcing it to ``k`` for
    the canonical two-sided recursion.
    """
    facts = proof.facts_for(predicate)
    if not facts:
        return 0
    width = 0
    arity = facts[0].arity
    for column in range(arity):
        counts: Dict[Value, int] = {}
        for fact in facts:
            term = fact.args[column]
            value = term.value if isinstance(term, Constant) else term
            counts[value] = counts.get(value, 0) + 1
        width = max(width, max(counts.values()))
    return width


def max_repetition_width(
    program: Program,
    predicate: str,
    body_predicate: str,
    database: Database,
    tuples: Optional[Sequence[Row]] = None,
    max_depth: int = 64,
) -> int:
    """The worst per-column repetition width over proofs of the given tuples.

    When ``tuples`` is omitted, every derivable tuple (computed by semi-naive
    evaluation) is examined.  Each tuple contributes the width of one
    shallowest proof — the quantity Lemma 4.1 bounds and Lemma 4.2 unbounds.
    """
    if tuples is None:
        from ..engine.seminaive import seminaive_query

        answers, _stats = seminaive_query(program, database, predicate)
        tuples = sorted(answers)
    width = 0
    for target in tuples:
        proof = find_proof(program, predicate, target, database, max_depth)
        if proof is not None:
            width = max(width, column_repetition_width(proof, body_predicate))
    return width


# ----------------------------------------------------------------------
# The "Property 2 only" evaluation the paper proves cannot work (Lemma 4.2)
# ----------------------------------------------------------------------
def lossy_unary_carry_evaluation(
    database: Database,
    constant: Value,
    up: str = "a",
    base: str = "b",
    down: str = "c",
    stats: Optional[EvaluationStats] = None,
) -> Tuple[Set[Value], EvaluationStats]:
    """Evaluate ``t(n0, Y)`` on the canonical two-sided recursion with a unary carry.

    The algorithm mimics Figure 8 as closely as the two-sided shape allows:
    ``carry`` holds only the values reachable through the ``a`` chain, values
    already in ``seen`` are pruned (Property 2: the only state is "has this
    value appeared"), and the answer is assembled by walking the ``c`` chain
    back up for the depth at which each value was *first* reached.

    This is intentionally the algorithm Section 4 argues cannot exist: it is
    exact whenever no proof needs to revisit a constant (and therefore agrees
    with semi-naive on, e.g., acyclic ``a``), but on the Lemma 4.2 family —
    where the only proof revisits ``v1`` ``k`` times — the pruning discards
    the revisits and answers are lost.  The E5 benchmark quantifies exactly
    how many.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    a = database.relation_or_empty(up, 2)
    b = database.relation_or_empty(base, 2)
    c = database.relation_or_empty(down, 2)

    carry: Set[Value] = {row[1] for row in algebra.select(a, {0: constant}, stats)}
    seen: Dict[Value, int] = {value: 1 for value in carry}
    depth = 1
    while carry:
        stats.record_iteration()
        next_values = {row[1] for row in algebra.semijoin(carry, a, 0, stats)}
        depth += 1
        carry = {value for value in next_values if value not in seen}
        for value in carry:
            seen[value] = depth
        stats.record_state(len(seen), len(seen))

    answers: Set[Value] = {row[1] for row in algebra.select(b, {0: constant}, stats)}
    for value, first_depth in seen.items():
        # b(w, z) at the bottom of the chain ...
        frontier = {row[1] for row in algebra.select(b, {0: value}, stats)}
        # ... then exactly `first_depth` applications of c back up.
        for _ in range(first_depth):
            frontier = {row[1] for row in algebra.semijoin(frontier, c, 0, stats)}
        answers |= frontier
    stats.record_produced(len(answers))
    stats.extra["carry_arity"] = 1
    stats.stop_timer()
    return answers, stats
