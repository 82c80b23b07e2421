"""Selection queries on IDB predicates, and the library's query front door.

The paper studies queries of the form "column = constant" on a recursively
defined relation — e.g. ``t(X, n0)?`` or ``t(n0, Y)?``.  :class:`SelectionQuery`
is the library-wide representation of such a query: a predicate name plus a
mapping from (0-based) column numbers to constants.  Free columns are the
output columns.

:func:`answer` is the front door over every evaluation strategy the library
implements.  The paper's conclusion — "check for one-sided recursions, and use
one-sided evaluation algorithms when a one-sided definition is detected" — is
decided in one place: :func:`plan_query` runs the :mod:`repro.optimize` pass
chain (rewrite-then-evaluate) and returns the strategy ladder as a value, a
:class:`QueryPlan` of ordered rungs (unfolded / one-sided / counting / magic /
semi-naive).  ``answer`` executes that plan and
:func:`repro.obs.profile.explain` renders it; the :class:`QueryResult` reports
the rung that answered, the rungs that refused and the optimizer's provenance.

Whatever strategy is picked, the joins underneath run on the engine's fast
runtime: compiled plans evaluate through generated kernels
(:mod:`repro.engine.kernels`), and every
strategy joins over the database's stored values as they are, so the answers
in a :class:`QueryResult` are the caller's own values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, ProgramError, QueryTimeout, ReproError
from ..datalog.relation import Relation, Row, Value
from ..datalog.rules import Program
from ..datalog.terms import Constant, Variable, is_variable
from .compile import CompiledRule, compiled
from .instrumentation import EvaluationStats, query_trace
from .naive import naive_query
from .seminaive import fixpoint_plans, seminaive_query


@dataclass(frozen=True)
class SelectionQuery:
    """A ``column = constant`` selection on an IDB predicate.

    Attributes
    ----------
    predicate:
        The IDB predicate being queried.
    arity:
        Its arity.
    bindings:
        Mapping of bound columns (0-based) to the selection constants.  An
        empty mapping asks for the whole relation.
    """

    predicate: str
    arity: int
    bindings: Tuple[Tuple[int, Value], ...] = ()

    @staticmethod
    def of(predicate: str, arity: int, bindings: Optional[Dict[int, Value]] = None) -> "SelectionQuery":
        """Build a query from a plain ``{column: constant}`` dictionary."""
        items = tuple(sorted((bindings or {}).items()))
        for column, _value in items:
            if column < 0 or column >= arity:
                raise EvaluationError(
                    f"query on {predicate}/{arity}: column {column} out of range"
                )
        return SelectionQuery(predicate, arity, items)

    @staticmethod
    def from_atom(atom: Atom) -> "SelectionQuery":
        """Build a query from a query atom such as ``t(1, Y)``.

        Constant arguments become bindings; variable arguments are output
        columns.  Repeated variables are rejected (the paper only considers
        single-column selections and free columns).
        """
        seen: Set[Variable] = set()
        bindings: Dict[int, Value] = {}
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                bindings[position] = arg.value
            elif is_variable(arg):
                if arg in seen:
                    raise EvaluationError(
                        f"query {atom} repeats variable {arg}; use distinct output variables"
                    )
                seen.add(arg)
        return SelectionQuery.of(atom.predicate, atom.arity, bindings)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def bindings_dict(self) -> Dict[int, Value]:
        """The bindings as a plain dictionary."""
        return dict(self.bindings)

    def bound_columns(self) -> Tuple[int, ...]:
        """The bound column numbers, ascending."""
        return tuple(column for column, _ in self.bindings)

    def free_columns(self) -> Tuple[int, ...]:
        """The unbound (output) column numbers, ascending."""
        bound = set(self.bound_columns())
        return tuple(column for column in range(self.arity) if column not in bound)

    def matches(self, row: Row) -> bool:
        """``True`` when ``row`` satisfies every binding."""
        return all(row[column] == value for column, value in self.bindings)

    def select(self, rows: Set[Row]) -> Set[Row]:
        """Filter a tuple set down to the tuples satisfying the query."""
        return {row for row in rows if self.matches(row)}

    def __str__(self) -> str:
        parts = []
        bindings = self.bindings_dict()
        for column in range(self.arity):
            parts.append(str(bindings[column]) if column in bindings else f"C{column}")
        return f"{self.predicate}({', '.join(parts)})?"


@dataclass
class QueryResult:
    """Answers to a selection query plus the stats of the strategy that produced them."""

    query: SelectionQuery
    answers: Set[Row]
    stats: EvaluationStats
    strategy: str = "unspecified"
    #: optimizer provenance (an :class:`repro.optimize.passes.OptimizationResult`)
    #: when the query went through :func:`answer`; ``None`` otherwise
    provenance: Optional[object] = field(default=None, repr=False, compare=False)
    #: the EXPLAIN ANALYZE record (a :class:`repro.obs.profile.QueryProfile`)
    #: when the query ran with ``profile=True``; ``None`` otherwise
    profile: Optional[object] = field(default=None, repr=False, compare=False)
    #: the name of the ladder :class:`Rung` that answered; empty outside :func:`answer`
    rung: str = field(default="", compare=False)
    #: ``(rung, error class, message)`` per rung that refused before this one answered
    fell_through: Tuple[Tuple[str, str, str], ...] = field(default=(), repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.answers)

    def projected(self) -> Set[Row]:
        """The answers projected onto the query's free (output) columns."""
        free = self.query.free_columns()
        return {tuple(row[column] for column in free) for row in self.answers}

    def __str__(self) -> str:
        return f"{self.query} -> {len(self.answers)} answers via {self.strategy} [{self.stats}]"


def as_selection_query(program: Program, query: Union[SelectionQuery, Atom, str]) -> SelectionQuery:
    """Coerce a string, query atom or :class:`SelectionQuery` into a checked query.

    Strings parse with :func:`repro.datalog.parser.parse_query`, once per
    distinct text; the query's arity is validated against the program, on
    every call, when the predicate appears in it.
    """
    if isinstance(query, str):
        query = _parse_selection(query)
    elif isinstance(query, Atom):
        query = SelectionQuery.from_atom(query)
    if not isinstance(query, SelectionQuery):
        raise EvaluationError(f"cannot interpret {query!r} as a selection query")
    declared = program.declared_arity(query.predicate)
    if declared is not None and declared != query.arity:
        raise EvaluationError(
            f"query {query} has arity {query.arity}, but {query.predicate} has arity "
            f"{declared} in the program"
        )
    return query


@lru_cache(maxsize=1024)
def _parse_selection(text: str) -> SelectionQuery:
    """The :class:`SelectionQuery` a query text spells: parsing is most of a
    served cache hit, and the answer is frozen, so every caller shares it.

    Keyed on the text alone, so the per-program arity check stays with
    :func:`as_selection_query`; a text that fails to parse or repeats a
    variable raises on every call and is never stored.
    """
    from ..datalog.parser import parse_query

    return SelectionQuery.from_atom(parse_query(text))


def lookup_result(
    selection: SelectionQuery,
    relation: Relation,
    strategy: str,
    provenance: Optional[object] = None,
) -> QueryResult:
    """Answer ``selection`` by one indexed lookup against a stored relation."""
    if relation.arity != selection.arity:
        raise EvaluationError(
            f"query {selection} has arity {selection.arity}, but {selection.predicate}/"
            f"{relation.arity} is what is stored"
        )
    stats = EvaluationStats()
    stats.start_timer()
    rows = relation.lookup(selection.bindings_dict())
    stats.record_lookup(len(rows), restricted=bool(selection.bindings))
    stats.stop_timer()
    return QueryResult(selection, set(rows), stats, strategy=strategy, provenance=provenance)


# ----------------------------------------------------------------------
# the strategy ladder, as a value
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One rung of a :class:`QueryPlan`: a strategy, why it applies, what it runs."""

    #: the strategy family (``one-sided-forward``, ``magic-sets``, …) and engine metrics label
    name: str
    #: the exact :attr:`QueryResult.strategy` of an answer this rung produces
    strategy: str
    reason: str
    #: ``run(database, selection) -> (answers, stats)``
    run: Callable[[Database, SelectionQuery], Tuple[Set[Row], EvaluationStats]] = field(repr=False)
    #: ``plans(selection, relations)``: the joins ``run`` would execute, in execution order;
    #: ``relations``, when given, gains what ``run`` adds before its first join (a magic seed)
    plans: Callable[[SelectionQuery, Optional[Dict[str, Relation]]], List[CompiledRule]] = field(repr=False)
    #: a one-sided rung's kept :class:`repro.core.schema.SchemaPlan`
    schema: Optional[object] = field(default=None, repr=False)


@dataclass(frozen=True)
class QueryPlan:
    """What :func:`plan_query` decided for every selection binding the same columns
    of one predicate: the rungs to try, in order, and why (no constants, no contents)."""

    #: the optimizer's ``OptimizationResult`` (``None``: the program does not define the predicate)
    provenance: Optional[object]
    #: the applicable strategies, cheapest first; the last one cannot refuse
    rungs: Tuple[Rung, ...]
    #: ``(rung, error class, message)`` per rung the analysis already refused
    fell_through: Tuple[Tuple[str, str, str], ...] = ()


def _unpack(result: QueryResult) -> Tuple[Set[Row], EvaluationStats]:
    return result.answers, result.stats


def plan_query(
    program: Program,
    selection: SelectionQuery,
    strategy: str = "auto",
) -> QueryPlan:
    """Decide how to evaluate ``selection``: the paper's advice, written once.

    Runs the :mod:`repro.optimize` pass chain on the query's predicate
    (redundancy removal, boundedness, sidedness, bounded-recursion unfolding)
    and returns the strategies that apply, cheapest first.  The plan holds no
    constants, so it is decided once per selection shape and kept on the
    program (:func:`~repro.engine.compile.compiled`), as is everything its
    rungs compile.  With ``strategy="auto"`` the ladder is: **unfolded** (the
    recursion was rewritten into a nonrecursive union — evaluated
    recursion-free with the selection pushed into each compiled join),
    **one-sided** (the Figure 9 schema, also used for many-sided selections
    that bind every unbounded side), **counting** (chain shapes with a
    column-0 selection), **magic** (any bound query), and finally plain
    **semi-naive** evaluation plus selection.  A forced strategy (``"naive"``,
    ``"seminaive"``, ``"magic"``, ``"one-sided"``, ``"counting"``,
    ``"unfolded"``) is a one-rung plan and raises where it does not apply:
    :class:`~repro.datalog.errors.NotOneSidedError` for ``"one-sided"`` on a
    recursion Theorem 3.1 rejects, :class:`~repro.datalog.errors.EvaluationError`
    for an out-of-scope ``"counting"`` or an ``"unfolded"`` with no boundedness
    witness within :data:`~repro.optimize.unfold.MAX_UNFOLD_DEPTH`.  A
    predicate no rule defines is answered, under ``"auto"``, ``"seminaive"``
    and ``"naive"``, by the one **edb-lookup** rung: an indexed lookup on its
    stored rows (none stored: no answers).
    """
    kept = compiled(program).query_plans
    key = (selection.predicate, selection.arity, selection.bound_columns(), strategy)
    plan = kept.get(key)
    if plan is None:
        plan = kept[key] = _plan(program, *key)
    return plan


def _plan(
    program: Program,
    predicate: str,
    arity: int,
    bound: Tuple[int, ...],
    strategy: str,
) -> QueryPlan:
    """:func:`plan_query` for one selection shape; its rungs run the program's kept plans."""
    if strategy not in ("auto", "unfolded", "one-sided", "counting", "magic", "seminaive", "naive"):
        raise EvaluationError(f"unknown evaluation strategy {strategy!r}")
    auto = strategy == "auto"
    if strategy in ("auto", "seminaive", "naive") and not program.rules_for(predicate):
        # no rule derives the predicate, so a fixpoint would only copy the stored rows
        return QueryPlan(None, (Rung(
            "edb-lookup", "edb-lookup", f"no rule defines {predicate}: one lookup on its stored rows",
            lambda database, selection: _unpack(
                lookup_result(selection, database.relation_or_empty(predicate, arity), "edb-lookup")
            ),
            lambda _selection, _relations: [],
        ),))

    from ..baselines.counting import counting_plans, counting_query, counting_scope_reason
    from ..baselines.magic import magic_query
    from ..core.classify import selection_covers_unbounded_sides
    from ..core.schema import compile_schema, run_schema
    from ..optimize.passes import Optimizer, UnfoldingPass, detection_passes, optimize_program
    from ..optimize.unfold import MAX_UNFOLD_DEPTH, evaluate_unfolded, unfolded_plans

    try:
        if strategy == "unfolded":
            # a forced unfolding request searches the full depth even
            # when structural boundedness is undecided (repeated predicates)
            provenance = Optimizer(detection_passes() + (UnfoldingPass(fallback_depth=None),)).run(program, predicate)
        else:
            # the default chain is analysed once per program, not once per query
            provenance = optimize_program(program, predicate)
    except ProgramError:
        provenance = None  # e.g. the predicate is not defined by the program
    #: the program the detection verdicts are about (redundancy removed, not unfolded)
    optimized = provenance.optimized if provenance is not None else program

    rungs: List[Rung] = []
    refused: List[Tuple[str, str, str]] = []
    unavailable = ""  # why a forced strategy has no rung

    def rung(name: str, reason: str, run, plans, label: str = "", schema=None) -> None:
        label = label or (f"{name} (auto)" if auto else name)
        rungs.append(Rung(name, label, reason, run, plans, schema))

    def schema_rung(require_one_sided: bool, reason: str) -> None:
        try:
            schema = compile_schema(optimized, predicate, arity, bound, require_one_sided)
        except ReproError as error:
            if not auto:
                raise
            refused.append(("one-sided", type(error).__name__, str(error)))
            return
        name = f"one-sided-{schema.direction}"
        subsidiary = schema.subsidiary_program or Program()
        rung(
            name,
            reason,
            lambda database, selection: run_schema(schema, database, selection),
            lambda _selection, relations: [compiled(subsidiary).plan(rule, relations) for rule in subsidiary.rules]
            + schema.compiled_plans(),
            "" if require_one_sided else f"{name} (bounded sides, auto)",
            schema,
        )

    def fixpoint(evaluate):
        return lambda database, selection: evaluate(
            program, database, predicate, selection.bindings_dict()
        )

    def program_joins(_selection, relations):  # what the semi-naive fixpoint compiles
        return fixpoint_plans(program, relations)

    if auto or strategy == "unfolded":
        definition = provenance.unfolded if provenance is not None else None
        if definition is not None:
            rung(
                "unfolded",
                f"bounded recursion: a union of {len(definition.strings)} nonrecursive "
                f"string(s) (witness depth {definition.witness_depth})",
                lambda database, selection: evaluate_unfolded(definition, database, selection),
                lambda selection, relations: [
                    plan for plan, _bindings in unfolded_plans(definition, selection, relations)
                ],
            )
        else:
            unavailable = f"{predicate} is not provably bounded within depth {MAX_UNFOLD_DEPTH}"
    if strategy == "one-sided" or (auto and provenance is not None and provenance.one_sided):
        schema_rung(True, "one-sided by Theorem 3.1: the Figure 9 schema carries the selection")
    elif (
        # Section 5's observation: a many-sided recursion whose unbounded sides
        # each receive a selection constant can still ride the Figure 9 schema.
        auto
        and provenance is not None
        and provenance.report is not None
        and bound
        and selection_covers_unbounded_sides(optimized, predicate, set(bound))
    ):
        schema_rung(False, "the selection binds every unbounded side: the Figure 9 schema applies")
    if auto or strategy == "counting":
        unavailable = counting_scope_reason(program, predicate, bound)
        if not unavailable:
            rung(
                "counting", "chain recursion with a column-0 selection",
                lambda database, selection: _unpack(counting_query(program, database, selection)),
                lambda _selection, relations: counting_plans(program, predicate, relations),
            )
    if strategy == "magic" and not bound:
        rung(
            "seminaive", "magic sets need a constant to seed",
            fixpoint(seminaive_query), program_joins, "seminaive (no bound columns)",
        )
    # on the ladder, magic also needs rules defining the predicate
    elif strategy == "magic" or (auto and bound and program.rules_for(predicate)):
        rung(
            "magic-sets", "the selection constants restrict the fixpoint through magic predicates",
            lambda database, selection: _unpack(magic_query(program, database, selection)),
            lambda selection, relations: _magic_plans(program, selection, relations),
        )
    if auto or strategy == "seminaive":
        rung(
            "seminaive", "full semi-naive fixpoint, then the selection",
            fixpoint(seminaive_query), program_joins,
        )
    if strategy == "naive":
        rung(
            "naive", "full naive fixpoint, then the selection", fixpoint(naive_query),
            lambda _selection, relations: [compiled(program).plan(rule, relations) for rule in program.rules],
        )
    if not rungs:
        raise EvaluationError(f"{strategy} strategy unavailable: {unavailable}")
    return QueryPlan(provenance, tuple(rungs), tuple(refused))


def _magic_plans(program: Program, selection: SelectionQuery, relations) -> List[CompiledRule]:
    """The magic rung's joins; ``relations`` gains the seed ``magic_query`` adds."""
    from ..baselines.magic import kept_rewrite

    rewriting = kept_rewrite(program, selection)
    if relations is not None:
        relations[rewriting.seed_predicate] = rewriting.seed_relation(selection)
    return fixpoint_plans(rewriting.rewritten, relations)


def answer(
    program: Program,
    database: Database,
    query: Union[SelectionQuery, Atom, str],
    strategy: str = "auto",
    profile: bool = False,
    trace_id: Optional[str] = None,
) -> QueryResult:
    """Answer a selection query through the optimizer: rewrite, then evaluate.

    The front door over every strategy in the library: :func:`plan_query`
    decides (the ``strategy="auto"`` ladder and the forced strategies are
    described there) and this function executes the plan — each rung in
    order, the first that answers wins.  A rung that refuses with a
    :class:`~repro.datalog.errors.ReproError` (e.g. the counting rung on
    cyclic reachable data) is recorded on
    ``result.fell_through`` and the next rung runs; a
    :class:`~repro.datalog.errors.QueryTimeout` is never a fall-through, and
    the last rung's error is the caller's.  ``result.rung`` and
    ``result.strategy`` name the rung that answered; ``result.provenance`` is
    the optimizer's :class:`~repro.optimize.passes.OptimizationResult`
    (``result.provenance.describe()`` lists the rewrites that fired).

    ``profile=True`` is EXPLAIN ANALYZE: the evaluation runs with a
    :class:`repro.obs.profile.ProfileRecorder` armed on the thread-local
    channel, and the finished :class:`~repro.obs.profile.QueryProfile` —
    dispatch decisions, iteration timings, rewrites, fall-throughs, the
    result's own stats — is attached as ``result.profile``.  ``trace_id``
    names that profile (a fresh one is generated when it is ``None``);
    without ``profile=True`` it is ignored.
    """
    selection = as_selection_query(program, query)
    if not profile:
        return _execute(plan_query(program, selection, strategy), database, selection)

    from ..obs.profile import ProfileRecorder

    recorder = ProfileRecorder(str(selection), trace_id=trace_id)
    started = perf_counter()
    with query_trace(recorder):
        result = _execute(plan_query(program, selection, strategy), database, selection)
    result.profile = recorder.build(
        strategy=result.strategy,
        stats=result.stats,
        outcome="ok",
        execution_seconds=perf_counter() - started,
        provenance=result.provenance,
        fell_through=result.fell_through,
    )
    return result


def _execute(plan: QueryPlan, database: Database, selection: SelectionQuery) -> QueryResult:
    """Run ``plan``: the first rung that answers wins; refusals are recorded, not hidden."""
    fell_through = list(plan.fell_through)
    for rung in plan.rungs:
        try:
            answers, stats = rung.run(database, selection)
            break
        except ReproError as error:
            if isinstance(error, QueryTimeout) or rung is plan.rungs[-1]:
                raise
            fell_through.append((rung.name, type(error).__name__, str(error)))
    return QueryResult(
        selection, answers, stats, rung.strategy, plan.provenance,
        rung=rung.name, fell_through=tuple(fell_through),
    )
