"""The counting method — the other baseline Section 4 points to.

The counting (or "counting sets") method [BMSU86, SZ86] evaluates a selection
on a chain-shaped linear recursion by remembering, for every value reached
while descending the recursion, *how many* recursive-rule applications were
needed to reach it, and then re-applying the "down" predicate that many times
while ascending.  It is the textbook remedy for exactly the two difficulties
Section 4 identifies in many-sided recursions (intermediate values must be
reused at several depths, and every string adds new instances on both sides of
the exit predicate) — at the cost of keeping the depth index in the state and
of not terminating on cyclic data: the descent refuses as soon as a non-empty
level is as deep as the number of distinct values reached, which happens
exactly when the data reachable from the query constant is cyclic.

Scope: the implementation covers *chain recursions*, i.e. definitions whose
single linear recursive rule has the shape

    t(X, Y) :- up(X, W), t(W, Z), down(Z, Y).      (canonical two-sided)
    t(X, Y) :- up(X, W), t(W, Y).                  (canonical one-sided)

with arbitrary exit rules, and queries binding the first column.  This covers
the recursions the paper's Section 4 analysis is about; other shapes raise
:class:`~repro.datalog.errors.ProgramError`.  The paper's closing question —
whether deleting the counting fields afterwards always yields a correct
reduced-arity program for one-sided recursions — is exercised by the E12
benchmark via :func:`counting_without_counts_query`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, ProgramError
from ..datalog.relation import Relation, Value
from ..datalog.rules import Program, Rule
from ..datalog.terms import Variable, is_variable
from ..engine import algebra
from ..engine.compile import CompiledRule, compiled
from ..engine.instrumentation import EvaluationStats
from ..engine.query import QueryResult, SelectionQuery


def _compile_exit_rules(
    program: Program, shape: ChainShape, relations, stats: Optional[EvaluationStats] = None
) -> List[Tuple[object, Optional[Value], CompiledRule]]:
    """Each exit rule's body as a plan of the program's (:func:`~repro.engine.compile.compiled`),
    picked once per query instead of once per value; a compile is counted on ``stats``.

    Returns ``(first head argument, match key, compiled plan)`` triples; when
    the first head argument is a variable it is declared bound so the
    per-value evaluation below probes the body with it, and the match key is
    ``None``.  For a constant first head argument the match key is the value
    the rule fires at.
    """
    plans: List[Tuple[object, Optional[Value], CompiledRule]] = []
    kept = compiled(program)
    for exit_rule in shape.exit_rules:
        head_first = exit_rule.head.args[0]
        bound = (head_first,) if is_variable(head_first) else ()
        plan = kept.plan(exit_rule, relations, bound=bound, stats=stats)
        match = None if is_variable(head_first) else head_first.value
        plans.append((head_first, match, plan))
    return plans


def _exit_seconds(
    plans: List[Tuple[object, Optional[Value], CompiledRule]],
    relations,
    value: Value,
    stats: EvaluationStats,
) -> Set[Value]:
    """Second head components derivable by the exit rules for ``value``."""
    seconds: Set[Value] = set()
    for head_first, match, plan in plans:
        if not plan.producible:
            continue
        if is_variable(head_first):
            bindings = {head_first: value}
        elif match != value:
            # a constant head argument only matches its own value; the rule
            # contributes nothing at other reached values
            continue
        else:
            bindings = None
        is_const, op = plan.head_ops[1]
        for assignment in plan.join(relations, stats=stats, bindings=bindings):
            seconds.add(op if is_const else assignment[op])
    return seconds


@dataclass
class ChainShape:
    """The decomposition of a chain recursion's recursive rule."""

    predicate: str
    recursive_rule: Rule
    exit_rules: List[Rule]
    #: the "up" predicate linking the head's first column to the call's first column
    up_predicate: str
    #: the "down" predicate linking the call's second column back to the head's
    #: second column, or ``None`` for the one-sided shape
    down_predicate: Optional[str]


def detect_chain_shape(program: Program, predicate: str) -> ChainShape:
    """Recognise the chain shape described in the module docstring."""
    rule = program.linear_recursive_rule(predicate)
    head = rule.head
    call = rule.recursive_atom()
    if head.arity != 2 or call.arity != 2:
        raise ProgramError("the counting method implementation handles binary chain recursions")
    head_x, head_y = head.args
    call_w, call_z = call.args
    if not all(is_variable(v) for v in (head_x, head_y, call_w, call_z)):
        raise ProgramError("chain recursions must have variable-only heads and recursive calls")

    up_predicate: Optional[str] = None
    down_predicate: Optional[str] = None
    for atom in rule.nonrecursive_atoms():
        if atom.arity == 2 and atom.args == (head_x, call_w):
            up_predicate = atom.predicate
        elif atom.arity == 2 and atom.args == (call_z, head_y):
            down_predicate = atom.predicate
        else:
            raise ProgramError(f"atom {atom} does not fit the chain shape")
    if up_predicate is None:
        raise ProgramError("no up-predicate of the form up(X, W) found")
    if down_predicate is None and call_z != head_y:
        raise ProgramError("the recursive call's second argument is neither chained down nor invariant")

    return ChainShape(
        predicate=predicate,
        recursive_rule=rule,
        exit_rules=program.exit_rules_for(predicate),
        up_predicate=up_predicate,
        down_predicate=down_predicate,
    )


def counting_scope_reason(program: Program, predicate: str, bound_columns: Tuple[int, ...]) -> str:
    """Why :func:`counting_query` cannot run a selection on ``predicate`` binding
    ``bound_columns`` — ``""`` when it can.

    One shared scope check for every router over the counting method (the
    query front door and the differential harness): the query must bind
    exactly column 0, the recursion must have the chain shape, and the exit
    rules must read only EDB predicates.  Only the selection's shape is read,
    never its constants.  Data-dependent failures (a cycle reachable from the
    constant) are not predictable from the program and still
    surface as :class:`EvaluationError` at run time.
    """
    if set(bound_columns) != {0}:
        return "query does not bind exactly column 0"
    try:
        shape = detect_chain_shape(program, predicate)
    except ProgramError as error:
        return f"no chain shape: {error}"
    edb = program.edb_predicates()
    for exit_rule in shape.exit_rules:
        if any(predicate not in edb for predicate in exit_rule.body_predicates()):
            return "exit rule depends on IDB predicates"
    return ""


def counting_plans(program: Program, predicate: str, relations) -> List[CompiledRule]:
    """The join plans :func:`counting_query` runs: the exit rules, probed per reached value."""
    shape = detect_chain_shape(program, predicate)
    return [plan for _head_first, _match, plan in _compile_exit_rules(program, shape, relations)]


def counting_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """Answer ``t(c, Y)`` on a chain recursion with the counting method.

    Raises :class:`EvaluationError` when the data reachable from ``c`` is
    cyclic: on acyclic data a non-empty level ``d`` is the end of a path of
    ``d + 1`` distinct values, so a level at least as deep as the number of
    values reached so far proves a cycle (within that many iterations).
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    bindings = query.bindings_dict()
    if set(bindings) != {0}:
        raise EvaluationError("the counting method implementation handles queries binding column 0")
    constant = bindings[0]
    shape = detect_chain_shape(program, query.predicate)

    relations = {relation.name: relation for relation in database.relations()}
    up = relations.get(shape.up_predicate) or Relation(shape.up_predicate, 2)
    down = None
    if shape.down_predicate is not None:
        down = relations.get(shape.down_predicate) or Relation(shape.down_predicate, 2)

    # descend: counting(i, w) = w reachable from the constant in exactly i up-steps
    counting: Dict[int, Set[Value]] = {0: {constant}}
    reached: Set[Value] = {constant}
    depth, held = 0, 1
    while counting[depth]:
        stats.record_iteration()
        next_values = {row[1] for row in algebra.semijoin(counting[depth], up, 0, stats)}
        depth += 1
        counting[depth] = next_values
        held += len(next_values)
        stats.record_state(held, 2 * held)
        reached |= next_values
        if next_values and len(reached) <= depth:
            raise EvaluationError(
                "the counting method did not terminate within the depth bound; "
                "the data reachable from the query constant is cyclic"
            )

    # ascend once, deepest level first (Horner's rule): one down-step per level
    # carries every exit found below it, so an exit at level l takes exactly l
    exit_plans = _compile_exit_rules(program, shape, relations, stats)
    frontier: Set[Value] = set()
    for level in range(depth, -1, -1):
        if frontier and down is not None:
            frontier = {row[1] for row in algebra.semijoin(frontier, down, 0, stats)}
        for value in counting[level]:
            frontier |= _exit_seconds(exit_plans, relations, value, stats)

    answers = query.select({(constant, value) for value in frontier})
    stats.record_produced(len(answers))
    stats.extra["counting_levels"] = len(counting)
    stats.stop_timer()
    return QueryResult(query, answers, stats, strategy="counting")


def counting_without_counts_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """The "delete the counting fields" variant discussed at the end of Section 4.

    For a *one-sided* chain recursion (no down-predicate) the depth index is
    never consulted on the way back up, so dropping it leaves a correct unary
    algorithm — in fact exactly the Henschen–Naqvi algorithm of Figure 8.  The
    implementation merges the per-depth sets into one ``seen`` set and answers
    from it; applying it to a recursion that *does* have a down chain would be
    incorrect, so that case is rejected.
    """
    stats = stats if stats is not None else EvaluationStats()
    shape = detect_chain_shape(program, query.predicate)
    if shape.down_predicate is not None:
        raise EvaluationError(
            "deleting the counting fields is only sound when no down-chain consumes them"
        )
    bindings = query.bindings_dict()
    if set(bindings) != {0}:
        raise EvaluationError("the counting method implementation handles queries binding column 0")
    constant = bindings[0]

    stats.start_timer()
    relations = {relation.name: relation for relation in database.relations()}
    up = relations.get(shape.up_predicate) or Relation(shape.up_predicate, 2)

    seen: Set[Value] = {constant}
    carry: Set[Value] = {constant}
    while carry:
        stats.record_iteration()
        carry = {row[1] for row in algebra.semijoin(carry, up, 0, stats)} - seen
        seen |= carry
        stats.record_state(len(seen), len(seen))

    answers: Set[Tuple[Value, ...]] = set()
    exit_plans = _compile_exit_rules(program, shape, relations, stats)
    for value in seen:
        for second in _exit_seconds(exit_plans, relations, value, stats):
            answers.add((constant, second))
    answers = query.select(answers)
    stats.record_produced(len(answers))
    stats.extra["carry_arity"] = 1
    stats.stop_timer()
    return QueryResult(query, answers, stats, strategy="counting-without-counts")
