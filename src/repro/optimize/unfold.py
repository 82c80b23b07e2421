"""Bounded-recursion unfolding — rewriting a bounded recursion away.

The point of detecting uniform boundedness (Theorem 3.3) is that a bounded
recursion *is not a recursion at all*: it is equivalent to the finite union
of its first ``k`` expansion strings, each of which is an ordinary
conjunctive query.  This module performs that rewrite:

1. find the boundedness witness depth ``k`` from the expansion
   (:func:`repro.core.boundedness.bounded_prefix_depth`);
2. take the strings with fewer than ``k`` recursive-rule applications and
   minimize the union (drop atoms foldable into the rest of their string,
   drop strings subsumed by another disjunct);
3. re-express the minimized strings as nonrecursive rules that replace the
   recursive definition.

The unfolded rules are plain Datalog, so :mod:`repro.engine.compile` can
evaluate them recursion-free — one compiled join per rule, no fixpoint — and
a ``column = constant`` selection can be pushed straight into the compiled
plans (:func:`evaluate_unfolded`), which is where the large speedups over
semi-naive iteration come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from ..cq.minimize import minimize_union
from ..cq.strings import ExpansionString
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import ProgramError
from ..datalog.relation import Relation, Row, Value
from ..datalog.rules import Program, Rule
from ..datalog.terms import Variable
from ..engine.compile import CompiledRule, compiled
from ..engine.instrumentation import EvaluationStats
from ..engine.query import SelectionQuery
from ..expansion.generator import expand
from ..core.boundedness import bounded_prefix_depth

#: how deep the query front door and views search for a boundedness witness
#: (recursive-rule applications)
MAX_UNFOLD_DEPTH = 8


@dataclass(frozen=True)
class UnfoldedDefinition:
    """A bounded recursion rewritten as a finite nonrecursive union.

    Attributes
    ----------
    predicate:
        The predicate whose recursion was unfolded.
    witness_depth:
        The boundedness witness ``k``: every string with ``k`` or more
        recursive-rule applications is contained in the union of the
        shallower strings, so the recursion equals the union of strings of
        depth ``< k``.
    strings:
        The minimized expansion strings of depth ``< k``.
    rules:
        The strings re-expressed as nonrecursive rules for ``predicate``.
    """

    predicate: str
    witness_depth: int
    strings: Tuple[ExpansionString, ...]
    rules: Tuple[Rule, ...]

    def __str__(self) -> str:
        body = "; ".join(str(rule) for rule in self.rules)
        return f"{self.predicate} unfolded at depth {self.witness_depth}: {body}"


def unfold_bounded(
    program: Program,
    predicate: str,
    max_depth: int = MAX_UNFOLD_DEPTH,
) -> Optional[UnfoldedDefinition]:
    """Unfold the recursion of ``predicate`` if it is provably bounded.

    Returns ``None`` when no boundedness witness exists within ``max_depth``,
    when the definition is outside the single-linear-rule scope of the
    expansion procedure, or when the minimized strings still mention IDB
    predicates (e.g. an exit rule feeding off another recursion) — in that
    case replacing the definition by EDB-only rules would be unsound, so the
    rewrite declines to fire.
    """
    try:
        depth = bounded_prefix_depth(program, predicate, max_depth)
    except ProgramError:
        return None
    if depth is None:
        return None
    strings = expand(program, predicate, depth - 1)
    minimized = minimize_union(strings)
    edb = program.edb_predicates()
    for string in minimized:
        if any(atom.predicate not in edb for atom in string.atoms):
            return None
    rules = tuple(
        Rule(Atom(predicate, tuple(string.distinguished)), tuple(string.atoms))
        for string in minimized
    )
    return UnfoldedDefinition(predicate, depth, tuple(minimized), rules)


def apply_unfolding(program: Program, definition: UnfoldedDefinition) -> Program:
    """Replace the rules defining ``definition.predicate`` by the unfolded rules.

    Every other predicate's rules are kept verbatim; the unfolded predicate's
    relation is unchanged (that is what the boundedness witness proves), so
    downstream rules reading it are unaffected.
    """
    kept = [rule for rule in program.rules if rule.head.predicate != definition.predicate]
    return Program(tuple(kept) + definition.rules)


def unfolded_plans(
    definition: UnfoldedDefinition,
    query: Optional[SelectionQuery],
    relations: Optional[Dict[str, Relation]],
    stats: Optional[EvaluationStats] = None,
) -> Iterator[Tuple[CompiledRule, Dict[Variable, Value]]]:
    """``(join plan, selection bindings)`` per minimized string ``query`` can match.

    Each string is one recursion-free join plan with the query's bound columns
    as compile-time bound variables, kept on the definition (so on the program
    whose optimizer result holds it) per join order; the constants travel
    through ``bindings``, so a stream of selections compiles each string once,
    and EXPLAIN shows the very plans evaluation runs.  A compile is counted on ``stats``.
    """
    plan = compiled(definition).plan
    for string, rule in zip(definition.strings, definition.rules):
        bindings: Dict[Variable, Value] = {}
        for column, value in query.bindings if query is not None else ():
            if bindings.setdefault(string.distinguished[column], value) != value:
                break  # repeated head variable bound to two constants: no match
        else:
            yield plan(rule, relations, bound=tuple(bindings), stats=stats), bindings


def evaluate_unfolded(
    definition: UnfoldedDefinition,
    database: Database,
    query: Optional[SelectionQuery] = None,
    stats: Optional[EvaluationStats] = None,
) -> Tuple[Set[Row], EvaluationStats]:
    """Evaluate an unfolded definition with the selection pushed into each join.

    Every plan of :func:`unfolded_plans` probes the stored relations with the
    selection constants instead of scanning — no fixpoint, no iteration, no
    irrelevant tuples.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    relations: Dict[str, Relation] = {r.name: r for r in database.relations()}
    answers: Set[Row] = set()
    for plan, bindings in unfolded_plans(definition, query, relations, stats):
        answers |= plan.evaluate(relations, stats=stats, bindings=bindings or None)
    if query is not None:
        answers = query.select(answers)
    stats.stop_timer()
    return answers, stats
