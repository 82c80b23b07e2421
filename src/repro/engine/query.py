"""Selection queries on IDB predicates, and the library's one query front door.

The paper studies queries of the form "column = constant" on a recursively
defined relation — e.g. ``t(X, n0)?`` or ``t(n0, Y)?``.  :class:`SelectionQuery`
is the library-wide representation of such a query: a predicate name plus a
mapping from (0-based) column numbers to constants.  Free columns are the
output columns.

:func:`answer` is the front door over every evaluation strategy the library
implements: it runs the :mod:`repro.optimize` pass chain first
(rewrite-then-evaluate), then picks unfolded / one-sided / counting / magic /
semi-naive per query, and reports both the chosen strategy and the
optimizer's rewrite provenance on the returned :class:`QueryResult`.

Whatever strategy is picked, the joins underneath run on the engine's fast
runtime: compiled plans evaluate through generated kernels
(:mod:`repro.engine.kernels`, ``REPRO_KERNELS=off`` to disable), and every
strategy joins over the database's stored values as they are, so the answers
in a :class:`QueryResult` are the caller's own values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, Union

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, ProgramError, ReproError
from ..datalog.relation import Row, Value
from ..datalog.rules import Program
from ..datalog.terms import Constant, Variable, is_variable
from .instrumentation import EvaluationStats


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

    Strings parse with :func:`repro.datalog.parser.parse_query`; the query's
    arity is validated against the program when the predicate appears in it.
    """
    if isinstance(query, str):
        from ..datalog.parser import parse_query

        query = parse_query(query)
    if isinstance(query, Atom):
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


#: strategies :func:`answer` resolves itself; the rest delegate to the planner
_FORCED_PLANNER_STRATEGIES = ("naive", "seminaive", "magic", "one-sided")


def answer(
    program: Program,
    database: Database,
    query: Union[SelectionQuery, Atom, str],
    strategy: str = "auto",
    optimizer: Optional[object] = None,
    max_unfold_depth: int = 8,
    counting_depth: int = 2_000,
    profile: bool = False,
    trace_id: Optional[str] = None,
) -> QueryResult:
    """Answer a selection query through the optimizer: rewrite, then evaluate.

    The front door over every strategy in the library.  With
    ``strategy="auto"`` it:

    1. runs the :mod:`repro.optimize` pass chain on the query's predicate
       (redundancy removal, boundedness, sidedness, bounded-recursion
       unfolding), sharing the library-wide containment cache;
    2. picks the cheapest applicable strategy, in order: **unfolded** (the
       recursion was rewritten into a nonrecursive union — evaluated
       recursion-free with the selection pushed into each compiled join),
       **one-sided** (the Figure 9 schema, also used for fully covered
       many-sided selections), **counting** (chain shapes with a column-0
       selection), **magic** (any bound query), and finally plain
       **semi-naive** evaluation plus selection;
    3. attaches the optimizer's :class:`~repro.optimize.passes.OptimizationResult`
       as ``result.provenance``, so callers can see exactly which rewrites
       fired (``result.provenance.describe()``).

    ``profile=True`` is EXPLAIN ANALYZE: the evaluation runs with a
    :class:`repro.obs.profile.ProfileRecorder` armed on the thread-local
    channel, and the finished :class:`~repro.obs.profile.QueryProfile` —
    dispatch decisions, iteration timings, rewrites, the result's own stats —
    is attached as ``result.profile``.  ``trace_id`` stamps the profile and
    every span the evaluation emits (one is generated when profiling without
    an explicit ID).

    Forcing ``strategy="unfolded"`` raises
    :class:`~repro.datalog.errors.EvaluationError` when no boundedness
    witness exists within ``max_unfold_depth``; the other named strategies
    (``"naive"``, ``"seminaive"``, ``"magic"``, ``"counting"``,
    ``"one-sided"``) behave as in :func:`repro.core.planner.answer_query`.
    """
    selection = as_selection_query(program, query)

    if profile or trace_id is not None:
        from time import perf_counter

        from ..obs.profile import ProfileRecorder
        from .instrumentation import query_trace

        recorder = ProfileRecorder(str(selection), trace_id=trace_id) if profile else None
        armed_trace = recorder.trace_id if recorder is not None else trace_id
        started = perf_counter()
        with query_trace(armed_trace, recorder):
            result = _answer_selection(
                program, database, selection, strategy, optimizer,
                max_unfold_depth, counting_depth,
            )
        if recorder is not None:
            result.profile = recorder.build(
                strategy=result.strategy,
                stats=result.stats,
                outcome="ok",
                execution_seconds=perf_counter() - started,
                provenance=result.provenance,
            )
        return result

    return _answer_selection(
        program, database, selection, strategy, optimizer,
        max_unfold_depth, counting_depth,
    )


def _answer_selection(
    program: Program,
    database: Database,
    selection: SelectionQuery,
    strategy: str,
    optimizer: Optional[object],
    max_unfold_depth: int,
    counting_depth: int,
) -> QueryResult:
    """The strategy ladder behind :func:`answer` (selection already coerced)."""
    if strategy in _FORCED_PLANNER_STRATEGIES:
        from ..core.planner import answer_query

        return answer_query(program, database, selection, strategy=strategy)

    if strategy == "counting":
        from ..baselines.counting import counting_query, counting_scope_reason

        reason = counting_scope_reason(program, selection)
        if reason:
            raise EvaluationError(f"counting strategy unavailable: {reason}")
        return counting_query(program, database, selection, max_depth=counting_depth)

    if strategy not in ("auto", "unfolded"):
        raise EvaluationError(f"unknown evaluation strategy {strategy!r}")

    from ..optimize.passes import Optimizer, UnfoldingPass, detection_passes, optimize_program
    from ..optimize.unfold import evaluate_unfolded

    try:
        if optimizer is not None:
            result = optimizer.run(program, selection.predicate)
        elif strategy == "unfolded":
            # a forced unfolding request searches the full requested depth even
            # when structural boundedness is undecided (repeated predicates)
            result = Optimizer(
                detection_passes()
                + (UnfoldingPass(max_depth=max_unfold_depth, fallback_depth=None),)
            ).run(program, selection.predicate)
        else:
            # the default chain is analysed once per program, not once per query
            result = optimize_program(
                program, selection.predicate, max_unfold_depth=max_unfold_depth
            )
    except ProgramError:
        result = None  # e.g. the predicate is not defined by the program

    if strategy == "unfolded":
        if result is None or result.unfolded is None:
            raise EvaluationError(
                f"{selection.predicate} is not provably bounded within depth "
                f"{max_unfold_depth}; cannot evaluate by unfolding"
            )
        answers, stats = evaluate_unfolded(result.unfolded, database, selection)
        return QueryResult(selection, answers, stats, strategy="unfolded", provenance=result)

    # ------------------------------------------------------------------
    # auto: the rewrites decide the strategy
    # ------------------------------------------------------------------
    if result is not None and result.unfolded is not None:
        answers, stats = evaluate_unfolded(result.unfolded, database, selection)
        return QueryResult(selection, answers, stats, strategy="unfolded (auto)", provenance=result)

    if result is not None and result.one_sided:
        from ..core.schema import OneSidedSchema

        try:
            schema = OneSidedSchema(result.optimized, selection.predicate, selection)
            routed = schema.run(database)
            routed.strategy = f"{routed.strategy} (auto)"
            routed.provenance = result
            return routed
        except ReproError:
            pass  # fall through to the general strategies

    # Section 5's observation: a many-sided recursion whose unbounded sides
    # each receive a selection constant can still ride the Figure 9 schema.
    if (
        result is not None
        and not result.one_sided
        and result.report is not None
        and selection.bound_columns()
    ):
        from ..core.classify import selection_covers_unbounded_sides
        from ..core.schema import OneSidedSchema

        try:
            if selection_covers_unbounded_sides(
                result.optimized, selection.predicate, set(selection.bound_columns())
            ):
                schema = OneSidedSchema(
                    result.optimized, selection.predicate, selection, require_one_sided=False
                )
                routed = schema.run(database)
                routed.strategy = f"{routed.strategy} (bounded sides, auto)"
                routed.provenance = result
                return routed
        except ReproError:
            pass

    from ..baselines.counting import counting_query, counting_scope_reason

    if not counting_scope_reason(program, selection):
        try:
            routed = counting_query(program, database, selection, max_depth=counting_depth)
            routed.strategy = f"{routed.strategy} (auto)"
            routed.provenance = result
            return routed
        except EvaluationError:
            pass  # e.g. cyclic reachable data tripping the depth bound

    if selection.bound_columns():
        from ..baselines.magic import magic_query

        try:
            routed = magic_query(program, database, selection)
            routed.strategy = f"{routed.strategy} (auto)"
            routed.provenance = result
            return routed
        except ReproError:
            pass

    from .seminaive import seminaive_query

    answers, stats = seminaive_query(
        program, database, selection.predicate, selection.bindings_dict()
    )
    return QueryResult(selection, answers, stats, strategy="seminaive (auto)", provenance=result)
