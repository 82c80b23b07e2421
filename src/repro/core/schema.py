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

Execution: one generated function per plan
------------------------------------------
Each operator — the exit rules under the selection, the first push, ``f``,
``g`` — is a :class:`~repro.engine.compile.CompiledRule` over a synthetic head
(``t.exit``, ``t.init``, ``t.backward`` / ``t.forward``, ``t.answer``) whose
body *starts* with the operator's inputs as ordinary atoms::

    t.forward(Z) :- t.selection($k0), t.carry(X), a(X, Z).

``t.selection`` is the query's constants and ``t.carry`` the round's carry
(``seen``, when ``g`` runs).  Constants and repeated variables in an exit head
or the recursive call, and the ``None`` of a carry column a step could not
determine, are the rule compiler's own atom checks.

The executor (:class:`repro.engine.kernels.Generated`) turns a plan's operators into
**one generated function** that runs all nine lines of Figure 9: the stored
relations' probes are hoisted once per run, the selection and the carry are
walked as plain values with their atom checks inline, ``− seen`` is fused into
``f`` (a row joins the next carry only if it is not in ``seen``), a ``state``
switch follows the known-column patterns, and the counters live in locals until
the end of the run — or a deadline's :class:`~repro.datalog.errors.QueryTimeout`
at the top of a round, which flushes them first.  It is memoized on the plan,
one per set of stored relations the database lacks: an operator reading one
stops there and records one lookup per application that reaches it.

The step machine in :mod:`repro.testing.reference` runs the same plans one
join per operator application instead: ``carry := f(carry)`` is one join per
round over a real :class:`~repro.datalog.relation.Relation` handed the round's
rows, then a set difference and a union.  That loop is the reference the
generated function is tested against: same answers, same counters, same
applications in an EXPLAIN ANALYZE profile.

The inputs are the driver's working state, not the database: they are the
plan's ``inputs`` (:func:`~repro.engine.compile.compile_rule`), head the join
order as written, and no executor records a lookup for walking them.  Every
probe of a *stored* relation is one recorded lookup (Property 3), so the
counters are what they were when Python drove the carry loop row by row.

Nothing a plan decides depends on the selection *constants* or the database,
so plans — or the error saying the schema is inapplicable — are kept on the
program (:func:`~repro.engine.compile.compiled`) per ``(predicate, arity,
bound columns, require_one_sided)``, with their generated runs.  Join orders
are fixed at compile time (inputs, then bound-first, ties in textual order).

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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom, atoms_variables
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, NotOneSidedError, ProgramError, ReproError
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term, Variable
from ..engine import kernels
from ..engine.compile import CompiledRule, compile_rule, compiled
from ..engine.instrumentation import EvaluationStats, active_profile
from ..engine.query import QueryResult, SelectionQuery
from .classify import classify

BACKWARD = "backward"  # exit-to-head, Figure 7 direction
FORWARD = "forward"  # head-to-exit, Figure 8 direction

#: stands in a carry column whose value the forward step cannot determine
#: (a recursive-call variable bound nowhere else); the column is left unbound
_UNKNOWN = Constant(None)


_Terms = Sequence[Term]
_Pattern = Tuple[bool, ...]
_Operators = Dict[_Pattern, Tuple[CompiledRule, _Pattern, Tuple[CompiledRule, ...]]]


@dataclass
class SchemaPlan:
    """The compiled form of Figure 9 for one recursion and one set of bound columns.

    Every operator is a compiled rule led by its ``inputs``: the selection, then the carry.
    """

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
    #: forward only: the exit rules under the selection, i.e. the depth-0 answers
    exits: Tuple[CompiledRule, ...] = ()
    #: selection → first carry rows (backward: the exit rules projected onto the
    #: carried columns; forward: the selection pushed through the body once)
    init: Tuple[CompiledRule, ...] = ()
    #: which carried columns ``init`` determines (the rest hold ``None``)
    init_known: _Pattern = ()
    #: Figure 9's ``f`` and ``g`` per known-column pattern of the carry rows they
    #: read — ``(f, pattern of the rows f emits, joins making up g)``.  Backward:
    #: ``f`` is the recursive call over the carry, ``g`` re-attaches the constants.
    backward: _Operators = field(default_factory=dict)
    #: Forward: ``f`` pushes the call bindings a level deeper, ``g`` joins the exits.
    forward: _Operators = field(default_factory=dict)
    #: generated runs by the stored relations they find missing, built on
    #: first use by :class:`repro.engine.kernels.Generated`
    _runs: Dict[Tuple[str, ...], Callable] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _stored: Optional[Tuple[str, ...]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        #: the input relations a run hands its joins: constants (one row), carry
        self.selection_name = f"{self.predicate}.selection"
        self.carry_name = f"{self.predicate}.carry"

    @property
    def carry_arity(self) -> int:
        """Number of columns the carry/seen relations hold (Property 2)."""
        return len(self.carried_positions) + len(self.remembered_positions)

    def operators(self) -> _Operators:
        """The ``f`` / ``g`` table of the plan's direction."""
        return self.backward if self.direction == BACKWARD else self.forward

    def compiled_plans(self) -> List[CompiledRule]:
        """Every join plan a run of this schema can execute, in execution order."""
        plans = [*self.exits, *self.init]
        for step, _known, finals in self.operators().values():
            plans += [step, *finals]
        return plans

    def stored(self) -> Tuple[str, ...]:
        """The stored relations a run reads, in the order its executor takes them."""
        if self._stored is None:
            self._stored = tuple(dict.fromkeys(
                step.predicate
                for op in self.compiled_plans() if op.producible
                for step in op.steps[op.inputs:]
            ))
        return self._stored

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

    def join(
        name: str, selection: _Terms, carry: Optional[_Terms], atoms: Sequence[Atom], output: _Terms
    ) -> CompiledRule:
        """``name(output) :- t.selection(selection)[, t.carry(carry)], atoms``, inputs leading."""
        inputs = [Atom(plan.selection_name, tuple(selection))]
        if carry is not None:
            inputs.append(Atom(plan.carry_name, tuple(carry)))
        rule = Rule(Atom(name, tuple(output)), (*inputs, *atoms))
        return compile_rule(rule, inputs=len(inputs))

    def selected(args: _Terms, columns: Sequence[int]) -> List[Term]:
        """``args`` on the bound columns: those in ``columns`` as written, the rest unconstrained."""
        return [args[i] if i in columns else Variable(f"$k{i}") for i in bound]

    def on_carried(args: _Terms) -> List[Term]:
        return [args[i] for i in carried]

    if direction == BACKWARD:
        plan.init = tuple(
            join(exit_name, selected(e.head.args, bound), None, e.body, on_carried(e.head.args)) for e in exit_rules
        )
        plan.init_known = (True,) * len(carried)
        step = join(
            f"{predicate}.backward", selected(call_args, bound), on_carried(call_args), body, on_carried(head_vars)
        )
        if not step.producible:
            raise EvaluationError(
                "the recursive rule does not determine every head column "
                "from the recursive call and the nonrecursive body; the "
                "Figure 9 schema cannot evaluate this query"
            )
        answer = join(f"{predicate}.answer", selected(head_vars, bound), on_carried(head_vars), (), head_vars)
        plan.backward[plan.init_known] = (step, plan.init_known, (answer,))
        return plan

    plan.exits = tuple(
        join(exit_name, selected(e.head.args, bound), None, e.body, e.head.args) for e in exit_rules
    )
    memory = [Variable(f"$r{i}") for i in remembered]
    #: invariant selection constants hold at every depth; linking ones only at depth 0
    kept = [i for i in bound if i in invariant]

    def call_state(bound_vars: Set[Variable]) -> Tuple[List[Term], _Pattern]:
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

    def entry(args: _Terms, known: _Pattern) -> List[Term]:
        """The carried columns of ``args`` that a carry row of pattern ``known`` binds."""
        return [args[i] if ok else Variable(f"$u{i}") for i, ok in zip(carried, known)]

    state, known = call_state({head_vars[i] for i in bound})
    plan.init = (
        join(f"{predicate}.init", selected(head_vars, bound), None, body, [head_vars[i] for i in remembered] + state),
    )
    plan.init_known = known
    while known not in plan.forward:
        state, after = call_state(
            {head_vars[i] for i in kept} | {head_vars[i] for i, ok in zip(carried, known) if ok}
        )
        step = join(
            f"{predicate}.forward", selected(head_vars, kept), memory + entry(head_vars, known), body, memory + state
        )
        finals = []
        for e in exit_rules:
            constants = selected(e.head.args, kept)
            row = list(e.head.args)
            for i, term in zip([*bound, *remembered], constants + memory):
                row[i] = term
            finals.append(join(exit_name, constants, memory + entry(e.head.args, known), e.body, row))
        plan.forward[known] = (step, after, tuple(finals))
        known = after
    return plan


def compile_schema(
    program: Program,
    predicate: str,
    arity: int,
    bound_columns: Tuple[int, ...],
    require_one_sided: bool = True,
) -> SchemaPlan:
    """The :class:`SchemaPlan` for selections binding ``bound_columns``, kept on the program.

    Raises the :class:`~repro.datalog.errors.ReproError` subclass explaining
    why the schema is inapplicable; that verdict is kept like a plan.  Plans
    hold no relation contents and no selection constants, so one entry serves
    every selection binding ``bound_columns``.
    """
    kept = compiled(program).schemas
    key = (predicate, arity, bound_columns, require_one_sided)
    entry = kept.get(key)
    if entry is None:
        try:
            entry = _build_plan(program, predicate, arity, bound_columns, require_one_sided)
        except ReproError as error:
            entry = type(error), str(error)
        kept[key] = entry
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

    def run(self, database: Database, stats: Optional[EvaluationStats] = None) -> QueryResult:
        """Evaluate the query over ``database`` and return the answers + stats."""
        answers, stats = run_schema(self.plan, database, self.query, stats)
        return QueryResult(self.query, answers, stats, strategy=f"one-sided-{self.plan.direction}")


def run_schema(
    plan: SchemaPlan, database: Database, query: SelectionQuery, stats: Optional[EvaluationStats] = None
) -> Tuple[Set[Row], EvaluationStats]:
    """The answers to ``query`` over ``database`` by ``plan``'s run, and the stats counting it.

    The executor's run for the plan does all of Figure 9, over the stored
    relations resolved once; its operators read the selection and the carry as
    uncounted ``inputs`` (see the module docstring).
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    relations = {relation.name: relation for relation in database.relations()}
    if plan.subsidiary_program is not None:
        from ..engine.seminaive import seminaive_evaluate

        # seminaive_evaluate drives the shared timer itself; pause the
        # schema's window around it so no interval is counted twice.
        stats.stop_timer()
        relations.update(seminaive_evaluate(plan.subsidiary_program, database, stats))
        stats.start_timer()
    stored = plan.stored()
    resolved = [relations.get(name) for name in stored]
    missing: Tuple[str, ...] = ()
    if None in resolved:
        missing = tuple(name for name, relation in zip(stored, resolved) if relation is None)
    executor = kernels.EXECUTOR
    profile = active_profile()
    rounds, finished = stats.iterations, False
    try:
        answers = executor.schema(plan, missing)(resolved, tuple([value for _column, value in query.bindings]), stats)
        finished = True
    finally:
        if profile is not None:
            _record_applications(plan, profile, stats.iterations - rounds, finished, executor.dispatch, relations)
    stats.extra["carry_arity"] = plan.carry_arity
    stats.stop_timer()
    return answers, stats


def _record_applications(
    plan: SchemaPlan, profile, rounds: int, finished: bool, dispatch: str, relations: Dict[str, Relation]
) -> None:
    """Report a run's operator applications to an armed profile.

    They follow from how many carry rounds the run completed and whether it
    got to ``g``; each carries the detail of the stored relation it found
    missing in ``relations``, if any.
    """
    operators = plan.operators()
    known = plan.init_known
    applied = [*plan.exits, *plan.init]
    reached = [known]
    for _ in range(rounds):
        step, known, _finals = operators[known]
        applied.append(step)
        if known not in reached:
            reached.append(known)
    if finished:
        applied += [final for known in reached for final in operators[known][2]]
    for op in applied:
        if op.producible:
            profile.record_dispatch(op, dispatch, op.dispatch_detail(op.resolve(relations)[1]))


def one_sided_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    require_one_sided: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """Convenience wrapper: compile the Figure 9 schema for ``query`` and run it."""
    return OneSidedSchema(program, query.predicate, query, require_one_sided).run(database, stats)
