"""The general evaluation schema for selections on one-sided recursions (Figure 9).

Figure 9 of the paper is a schema::

    1) init carry;   2) init seen;   3) init ans;
    4) while carry not empty do
    5)     carry := f(carry);
    6)     carry := carry - seen;
    7)     seen  := seen ∪ carry;
    8) endwhile;
    9) ans := g(seen);

"The initialisation, the arities of carry, seen, and ans, and the operators
f and g are determined by the given recursion and query."  This module is that
determination: :func:`compile_schema` turns a single-linear-rule recursion
plus the *bound columns* of a ``column = constant`` selection into a
:class:`SchemaPlan`, and :class:`OneSidedSchema` runs a plan for one query's
constants.

Compilation
-----------
Write the recursive rule as ``t(H1..Hn) :- body, t(A1..An)``.  A head position
``i`` is **invariant** when ``Ai`` is the same variable as ``Hi`` (the value is
passed unchanged down the recursion, so a selection constant on that column
reaches the exit rule); every other position is **linking**.

* If every selected column is invariant, the strings are evaluated from the
  exit end toward the head (the Figure 7 / Aho–Ullman direction): ``carry``
  holds derived ``t``-tuples with the constant columns projected away, ``f``
  applies the recursive rule "backwards" (bind the recursive call to a carry
  tuple, join the nonrecursive body atoms, emit the head), and ``g`` re-attaches
  the constants.
* Otherwise the strings are evaluated from the head end toward the exit (the
  Figure 8 / Henschen–Naqvi direction): ``carry`` holds the argument tuple of
  the recursive call reachable from the selection (plus the level-0 values of
  any free non-invariant output columns), ``f`` pushes those bindings through
  the nonrecursive body atoms, and ``g`` joins the reachable call tuples with
  the exit rules.

Each of those joins — the exit rules under the pushed-down bindings, the
backward step, the forward step — is a :class:`~repro.engine.compile.CompiledRule`
over a synthetic head (``t.exit``, ``t.backward``, ``t.init``, ``t.forward``):
the terms a join binds are compile-time ``bound`` variables and the tuple it
emits is the synthetic head, so ``f`` and ``g`` are one kernel call per carry
row (``REPRO_KERNELS=off``: one interpreted join) over the stored values, with
relations resolved and kernels fetched once per :meth:`OneSidedSchema.run`.
Every probe is still one recorded lookup (Property 3) on either executor.

Nothing a plan decides depends on the selection *constants* or the database,
so plans — or the error saying the schema is inapplicable — are memoized per
``(program, predicate, arity, bound columns, require_one_sided)`` and the
constants travel through the bound slots at run time.  Join orders are fixed
at compile time (bound-first, ties in textual order).

The ``carry − seen`` step is sound here for exactly the reason Section 4
gives: the transition depends only on the carry tuple, so a state reached
twice contributes nothing new (Lemma 4.1 is the special case of a unary
carry).  The schema is *applicable* to any linear recursion — but only for
one-sided recursions does the carry stay small and do the lookups stay
restricted, which is what the benchmarks measure; pass
``require_one_sided=False`` to run it on a many-sided recursion anyway (e.g.
to reproduce the Section 4 cross-product discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.atoms import Atom, atoms_variables
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, NotOneSidedError, ProgramError, ReproError
from ..datalog.relation import Relation, Row, Value
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term, Variable
from ..engine.compile import CompiledRule, compile_rule
from ..engine.instrumentation import EvaluationStats
from ..engine.query import QueryResult, SelectionQuery
from .classify import classify

BACKWARD = "backward"  # exit-to-head, Figure 7 direction
FORWARD = "forward"  # head-to-exit, Figure 8 direction

#: stands in a carry column whose value the forward step cannot determine
#: (a recursive-call variable bound nowhere else); the column is left unbound
_UNKNOWN = Constant(None)


class _Join:
    """One of the schema's joins, compiled: bind ``terms``, join ``body``, emit ``output``.

    ``terms[i]`` is unified with the ``i``-th value handed to the bound join:
    variables become the plan's compile-time ``bound`` slots, a constant term
    must equal its value and a repeated variable must receive equal values —
    otherwise the join yields nothing.
    """

    __slots__ = ("plan", "fixed", "equal", "picks")

    def __init__(self, name: str, terms: Sequence[Term], body: Sequence[Atom], output: Sequence[Term]) -> None:
        first: Dict[Variable, int] = {}
        fixed: List[Tuple[int, Value]] = []
        equal: List[Tuple[int, int]] = []
        for index, term in enumerate(terms):
            if isinstance(term, Constant):
                fixed.append((index, term.value))
            elif term in first:
                equal.append((first[term], index))
            else:
                first[term] = index
        self.fixed, self.equal = fixed, equal
        #: value positions feeding the bound slots; ``None`` when every term
        #: is a distinct variable and the values pass through unchanged
        self.picks = tuple(first.values()) if fixed or equal else None
        self.plan = compile_rule(Rule(Atom(name, tuple(output)), tuple(body)), bound=tuple(first))

    def bind(self, relations: Dict[str, Relation], stats: EvaluationStats) -> Callable[[Row], Iterable[Row]]:
        """``run(values) -> output tuples``, with the plan prepared once for ``relations``."""
        evaluate = self.plan.prepare(relations)
        picks = self.picks
        if picks is None:
            return lambda values: evaluate(values, stats)
        fixed, equal = self.fixed, self.equal

        def run(values: Row) -> Iterable[Row]:
            for index, value in fixed:
                if values[index] != value:
                    return ()
            for left, right in equal:
                if values[left] != values[right]:
                    return ()
            return evaluate(tuple(values[index] for index in picks), stats)

        return run


@dataclass
class SchemaPlan:
    """The compiled form of Figure 9 for one recursion and one set of bound columns."""

    predicate: str
    arity: int
    bound_columns: Tuple[int, ...]
    invariant_positions: Tuple[int, ...]
    direction: str
    #: columns carried between iterations (everything except the statically
    #: constant columns); the carry arity of the compiled algorithm
    carried_positions: Tuple[int, ...]
    #: free non-invariant head positions whose level-0 value must be remembered
    #: alongside the carry in the forward direction
    remembered_positions: Tuple[int, ...] = ()
    #: rules for the IDB predicates the recursion reads, materialized before a run
    subsidiary_program: Optional[Program] = None
    #: exit rules under the selection constants — backward: the initial carry;
    #: forward: the depth-0 answers
    exits: Tuple[_Join, ...] = ()
    #: backward ``f``: recursive call bound to (constants + carry row) → next carry rows
    step: Optional[_Join] = None
    #: forward initialisation: selection constants → first carry rows
    init: Optional[_Join] = None
    #: which carried columns ``init`` determines (the rest hold ``None``)
    init_known: Tuple[bool, ...] = ()
    #: forward ``f`` and ``g`` per known-column pattern of the carry rows they
    #: read: ``(step join, pattern of its output, exit joins emitting answers)``
    forward: Dict[Tuple[bool, ...], Tuple[_Join, Tuple[bool, ...], Tuple[_Join, ...]]] = field(default_factory=dict)

    @property
    def carry_arity(self) -> int:
        """Number of columns the carry/seen relations hold (Property 2)."""
        return len(self.carried_positions) + len(self.remembered_positions)

    def compiled_plans(self) -> List[CompiledRule]:
        """Every join plan a run of this schema can execute, in execution order."""
        joins = [*self.exits, self.step, self.init]
        for step, _known, finals in self.forward.values():
            joins += [step, *finals]
        return [join.plan for join in joins if join is not None]

    def describe(self) -> str:
        """A short human-readable account of the compiled plan."""
        invariant = ", ".join(str(i) for i in self.invariant_positions) or "none"
        bound = ", ".join(str(i) for i in self.bound_columns) or "none"
        return (
            f"{self.predicate}/{self.arity} bound columns=[{bound}]: direction={self.direction}, "
            f"invariant columns=[{invariant}], carry arity={self.carry_arity}"
        )


def _subsidiary_program(program: Program, predicate: str) -> Optional[Program]:
    """The rules for IDB predicates the recursion reads (e.g. an IDB exit layer).

    The schema evaluates the recursion's strings against stored relations,
    but an exit rule (or a nonrecursive body atom) may reference a
    predicate defined by *other* rules of the program — the cross-product
    exit layer of Section 4 is the canonical example.  Those subsidiary
    predicates are materialized with one semi-naive pass before the schema
    runs; without this the schema would silently read them as empty.

    Raises :class:`ProgramError` when a subsidiary predicate depends back
    on the schema's own predicate (mutual recursion), which the
    single-linear-rule machinery cannot evaluate.
    """
    idb = program.idb_predicates()
    needed: Set[str] = set()
    frontier = {atom.predicate for rule in program.rules_for(predicate) for atom in rule.body}
    while frontier:
        name = frontier.pop()
        if name == predicate or name in needed or name not in idb:
            continue
        needed.add(name)
        for rule in program.rules_for(name):
            frontier.update(atom.predicate for atom in rule.body)
    if not needed:
        return None
    for name in sorted(needed):
        for rule in program.rules_for(name):
            if predicate in rule.body_predicates():
                raise ProgramError(
                    f"{predicate} is mutually recursive with {name}; the "
                    "one-sided schema handles a single linear recursion only"
                )
    return Program(tuple(rule for rule in program.rules if rule.head.predicate in needed))


def _build_plan(
    program: Program, predicate: str, arity: int, bound: Tuple[int, ...], require_one_sided: bool
) -> SchemaPlan:
    """Analyse the recursion for one set of bound columns and compile its joins."""
    if require_one_sided:
        report = classify(program, predicate)
        if not report.is_one_sided and not report.is_bounded_looking:
            raise NotOneSidedError(
                f"{predicate} is not one-sided ({report.reason()}); "
                "pass require_one_sided=False to run the schema anyway"
            )

    rule = program.linear_recursive_rule(predicate)
    exit_rules = program.exit_rules_for(predicate)
    if not exit_rules:
        raise ProgramError(f"{predicate} has no exit rule")
    if arity != rule.head.arity:
        raise EvaluationError(
            f"query on {predicate} has arity {arity}, but {predicate} has arity {rule.head.arity}"
        )
    if rule.head_has_repeated_variables_or_constants():
        raise ProgramError(
            f"the head of {rule} must contain only distinct variables (paper assumption)"
        )
    head_vars = list(rule.head.args)
    call_args = list(rule.recursive_atom().args)
    body = rule.nonrecursive_atoms()
    body_vars = atoms_variables(body)
    positions = range(arity)

    invariant = tuple(i for i in positions if call_args[i] == head_vars[i])
    # no selection at all is plain reduced semi-naive on t, run backward
    direction = BACKWARD if set(bound) <= set(invariant) else FORWARD

    if direction == BACKWARD:
        carried = tuple(i for i in positions if i not in bound)
        remembered: Tuple[int, ...] = ()
    else:
        def carried_forward(position: int) -> bool:
            if position not in invariant:
                return True
            # bound: statically equal to the selection constant.  Free: the value
            # is only determined at the exit; carry it only when the nonrecursive
            # body constrains it (e.g. the permission predicate of Example 4.1),
            # otherwise drop the column — the arity reduction of the canonical case.
            return position not in bound and head_vars[position] in body_vars

        carried = tuple(i for i in positions if carried_forward(i))
        remembered = tuple(i for i in positions if i not in bound and i not in invariant)
        for position in remembered:
            if head_vars[position] not in body_vars:
                raise EvaluationError(
                    f"output column {position} of {predicate} is not connected to the "
                    "nonrecursive body of the recursive rule; the Figure 9 schema cannot "
                    "carry its value from the selection end of the strings"
                )

    plan = SchemaPlan(
        predicate, arity, bound, invariant, direction, carried, remembered,
        subsidiary_program=_subsidiary_program(program, predicate),
    )
    exit_name = f"{predicate}.exit"

    if direction == BACKWARD:
        plan.exits = tuple(
            _Join(exit_name, [e.head.args[i] for i in bound], e.body, [e.head.args[i] for i in carried])
            for e in exit_rules
        )
        plan.step = _Join(
            f"{predicate}.backward",
            [call_args[i] for i in bound + carried],
            body,
            [head_vars[i] for i in carried],
        )
        if not plan.step.plan.producible:
            raise EvaluationError(
                "the recursive rule does not determine every head column "
                "from the recursive call and the nonrecursive body; the "
                "Figure 9 schema cannot evaluate this query"
            )
        return plan

    plan.exits = tuple(
        _Join(exit_name, [e.head.args[i] for i in bound], e.body, e.head.args) for e in exit_rules
    )
    memory = [Variable(f"$r{i}") for i in remembered]
    #: invariant selection constants hold at every depth; linking ones only at depth 0
    kept = [i for i in bound if i in invariant]

    def call_state(bound_vars: Set[Variable]) -> Tuple[List[Term], Tuple[bool, ...]]:
        """The recursive call's carried arguments, and which of them a step determines."""
        available = body_vars | bound_vars
        known = tuple(
            isinstance(call_args[i], Constant) or call_args[i] in available for i in carried
        )
        for i, ok in zip(carried, known):
            if not ok and call_args.count(call_args[i]) > 1:
                raise EvaluationError(
                    f"the recursive call repeats {call_args[i]}, which the forward step cannot "
                    "determine; the Figure 9 schema would lose the equality it imposes"
                )
        return [call_args[i] if ok else _UNKNOWN for i, ok in zip(carried, known)], known

    def entry(args: Sequence[Term], known: Tuple[bool, ...]) -> List[Term]:
        """The carried columns of ``args`` that a carry row of pattern ``known`` binds."""
        return [args[i] if ok else Variable(f"$u{i}") for i, ok in zip(carried, known)]

    state, known = call_state({head_vars[i] for i in bound})
    plan.init = _Join(
        f"{predicate}.init",
        [head_vars[i] for i in bound],
        body,
        [head_vars[i] for i in remembered] + state,
    )
    plan.init_known = known
    while known not in plan.forward:
        inputs = entry(head_vars, known)
        state, after = call_state(
            {head_vars[i] for i in kept} | {head_vars[i] for i, ok in zip(carried, known) if ok}
        )
        step = _Join(
            f"{predicate}.forward", [head_vars[i] for i in kept] + memory + inputs, body, memory + state
        )
        finals = []
        for e in exit_rules:
            row = list(e.head.args)
            for i in bound:
                if i not in invariant:
                    row[i] = Variable(f"$k{i}")
            constants = [row[i] for i in bound]
            for i, variable in zip(remembered, memory):
                row[i] = variable
            finals.append(_Join(exit_name, constants + memory + entry(e.head.args, known), e.body, row))
        plan.forward[known] = (step, after, tuple(finals))
        known = after
    return plan


#: (program, predicate, arity, bound columns, require_one_sided) → the compiled
#: plan, or the (error class, message) that says the schema is inapplicable.
#: Plans hold no relation contents and no selection constants.  The memo
#: outlives any one program, so it is cleared wholesale at a constant cap.
_plan_memo: Dict[tuple, Union[SchemaPlan, Tuple[type, str]]] = {}
_PLAN_MEMO_LIMIT = 256


def compile_schema(
    program: Program,
    predicate: str,
    arity: int,
    bound_columns: Tuple[int, ...],
    require_one_sided: bool = True,
) -> SchemaPlan:
    """The memoized :class:`SchemaPlan` for selections binding ``bound_columns``.

    Raises the :class:`~repro.datalog.errors.ReproError` subclass explaining
    why the schema is inapplicable; that verdict is memoized like a plan.
    """
    key = (program, predicate, arity, bound_columns, require_one_sided)
    entry = _plan_memo.get(key)
    if entry is None:
        try:
            entry = _build_plan(program, predicate, arity, bound_columns, require_one_sided)
        except ReproError as error:
            entry = (type(error), str(error))
        if len(_plan_memo) >= _PLAN_MEMO_LIMIT:
            _plan_memo.clear()
        _plan_memo[key] = entry
    if isinstance(entry, tuple):
        raise entry[0](entry[1])
    return entry


class OneSidedSchema:
    """Run the Figure 9 schema for one recursion and one selection."""

    def __init__(
        self,
        program: Program,
        predicate: str,
        query: SelectionQuery,
        require_one_sided: bool = True,
    ) -> None:
        if query.predicate != predicate:
            raise EvaluationError(
                f"query {query} does not match the compiled predicate {predicate}"
            )
        self.program = program
        self.predicate = predicate
        self.query = query
        self.plan = compile_schema(
            program, predicate, query.arity, query.bound_columns(), require_one_sided
        )

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, database: Database, stats: Optional[EvaluationStats] = None) -> QueryResult:
        """Evaluate the query over ``database`` and return the answers + stats."""
        stats = stats if stats is not None else EvaluationStats()
        stats.start_timer()
        relations = {relation.name: relation for relation in database.relations()}
        if self.plan.subsidiary_program is not None:
            from ..engine.seminaive import seminaive_evaluate

            # seminaive_evaluate drives the shared timer itself; pause the
            # schema's window around it so no interval is counted twice.
            stats.stop_timer()
            relations.update(seminaive_evaluate(self.plan.subsidiary_program, database, stats))
            stats.start_timer()
        constants = tuple(value for _column, value in self.query.bindings)
        run = self._run_backward if self.plan.direction == BACKWARD else self._run_forward
        answers = run(relations, constants, stats)
        stats.extra["carry_arity"] = self.plan.carry_arity
        stats.stop_timer()
        return QueryResult(self.query, answers, stats, strategy=f"one-sided-{self.plan.direction}")

    def _exit_tuples(self, relations: Dict[str, Relation], constants: Row, stats: EvaluationStats) -> Set[Row]:
        """What one application of each exit rule derives under the selection constants."""
        return set().union(*(join.bind(relations, stats)(constants) for join in self.plan.exits))

    # ------------------------------------------------------------------
    # backward direction (Figure 7 generalization)
    # ------------------------------------------------------------------
    def _run_backward(self, relations: Dict[str, Relation], constants: Row, stats: EvaluationStats) -> Set[Row]:
        plan = self.plan
        width = max(1, plan.carry_arity)

        # 1-3) init carry, seen, ans: tuples derivable by the exit rules under
        # the selection, projected onto the carried columns.
        carry = self._exit_tuples(relations, constants, stats)
        seen: Set[Row] = set(carry)
        stats.record_produced(len(carry))
        stats.record_state(len(seen), len(seen) * width)

        # 4-8) while carry not empty: apply the recursive rule backwards.
        step = plan.step.bind(relations, stats)
        while carry:
            stats.record_iteration()
            new_carry: Set[Row] = set()
            for carry_row in carry:
                new_carry.update(step(constants + carry_row))
            carry = new_carry - seen
            seen |= carry
            stats.record_produced(len(carry))
            stats.record_state(len(seen) + len(carry), (len(seen) + len(carry)) * width)

        # 9) ans := g(seen): re-attach the selection constants.
        order = plan.bound_columns + plan.carried_positions
        layout = [order.index(column) for column in range(plan.arity)]
        rows = (constants + carry_row for carry_row in seen)
        return {tuple(row[index] for index in layout) for row in rows}

    # ------------------------------------------------------------------
    # forward direction (Figure 8 generalization)
    # ------------------------------------------------------------------
    def _run_forward(self, relations: Dict[str, Relation], constants: Row, stats: EvaluationStats) -> Set[Row]:
        plan = self.plan
        kept = tuple(
            value for column, value in self.query.bindings if column in plan.invariant_positions
        )
        width = max(1, plan.carry_arity)

        # 1-3) init: answer the depth-0 case directly from the exit rules, and
        # push the selection through the nonrecursive body once to obtain the
        # (remembered columns + recursive-call arguments) reachable in one step.
        answers = self._exit_tuples(relations, constants, stats)
        carry = set(plan.init.bind(relations, stats)(constants))
        known = plan.init_known
        #: carry rows reached so far, by which of their columns are determined
        seen: Dict[Tuple[bool, ...], Set[Row]] = {known: set(carry)}
        total = len(carry)
        stats.record_produced(total)
        stats.record_state(total, total * width)

        # 4-8) while carry not empty: push the call bindings one level deeper.
        prepared = {
            pattern: (step.bind(relations, stats), after, [final.bind(relations, stats) for final in finals])
            for pattern, (step, after, finals) in plan.forward.items()
        }
        while carry:
            stats.record_iteration()
            step, known, _finals = prepared[known]
            new_carry: Set[Row] = set()
            for carry_row in carry:
                new_carry.update(step(kept + carry_row))
            reached = seen.setdefault(known, set())
            carry = new_carry - reached
            reached |= carry
            total += len(carry)
            stats.record_produced(len(carry))
            stats.record_state(total + len(carry), (total + len(carry)) * width)

        # 9) ans := g(seen): join the reachable call tuples with the exit rules.
        for known, rows in seen.items():
            for carry_row in rows:
                for final in prepared[known][2]:
                    answers.update(final(constants + carry_row))
        return answers


def one_sided_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    require_one_sided: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """Convenience wrapper: compile the Figure 9 schema for ``query`` and run it."""
    schema = OneSidedSchema(program, query.predicate, query, require_one_sided=require_one_sided)
    return schema.run(database, stats)
