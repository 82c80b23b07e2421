"""Compiled rule plans — the engine-v2 hot path.

Planning a join is identical on every application of a rule, so this module
does it once per rule and compiles a flat plan: the one executor under every
strategy (semi-naive, magic, counting, unfolded, the Figure 9 schema's exit /
step joins) and every one-shot evaluation (an expansion string, a proof, the
Section 4 cross product).  A plan fixes:

* a **join order** (:func:`plan_order`, greedy bound-first: a bound variable
  or a constant restricts the index probe, which is what makes Property 3,
  "no unrestricted lookups", achievable and measurable),
* per atom, a **bound-column signature**: which positions carry constants,
  which are filled from variables bound by earlier atoms, which positions
  repeat a variable first seen in the same atom, and which introduce new
  variables, and
* a **projection map** turning a satisfying assignment directly into a head
  tuple.

Variables are erased at compile time: an assignment is a flat tuple of value
*slots* (assigned in discovery order along the plan), so the inner evaluation
loop does no dictionary copying and no per-row ``isinstance`` dispatch.  The
instrumentation contract is unchanged — every probe against a stored relation
is still recorded through :meth:`EvaluationStats.record_lookup`, so the
paper's restricted/unrestricted accounting (Property 3) is preserved.

Semi-naive evaluation compiles one **delta variant** per occurrence of each
recursive predicate: the variant forces that occurrence to the front of the
join order (the delta is the most selective input by construction) and reads
it from an *override* relation at evaluation time, so the same compiled plan
is reused by every delta iteration of the fixpoint — and, kept on the program
per join order (:func:`compiled`), by every later fixpoint that picks that order.

Every plan runs on the executor :mod:`repro.engine.kernels` builds for it:
a fused nested-loop closure per plan (probe keys, equality checks, slot
stores and head projection inlined into straight-line Python), whatever the
body's length.  :meth:`CompiledRule.join`, :meth:`CompiledRule.evaluate` and
:func:`prepare` (the same resolution done once, for a driver that applies its
plans round after round) first :meth:`~CompiledRule.resolve` the body
relations: one the caller lacks reads as empty, and the run stops there,
recording one restricted lookup.  EXPLAIN makes the same call, so it shows
the dispatch a run records.  The kernels are tested against
:mod:`repro.testing.oracle`, which shares no code here, and against the step
machine in :mod:`repro.testing.reference`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.relation import Relation, Row, Value
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from . import kernels
from .instrumentation import EvaluationStats, active_profile

RelationMap = Mapping[str, Relation]

#: what a body relation the caller lacks resolves to: one shared empty relation
ABSENT = Relation("(absent)", 0)


def _atom_bound_columns(atom: Atom, bound: Set[Variable]) -> int:
    """How many argument positions of ``atom`` are bound under ``bound``."""
    return sum(1 for arg in atom.args if isinstance(arg, Constant) or arg in bound)


def plan_order(
    atoms: Sequence[Atom],
    initially_bound: Set[Variable],
    relations: Optional[RelationMap] = None,
    first: Optional[int] = None,
) -> List[int]:
    """Greedy join order: repeatedly pick the atom with the most bound columns.

    Ties are broken by preferring smaller stored relations (when sizes are
    available) and then by textual order, which keeps plans deterministic.
    Returns the atom indexes in evaluation order.  When ``first`` is given,
    that atom is forced to the front (semi-naive plans put the delta
    occurrence first — it is the most selective input by construction) and
    the rest are planned greedily with its variables counted as bound.
    """
    remaining = list(range(len(atoms)))
    bound = set(initially_bound)
    order: List[int] = []
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound |= atoms[first].variable_set()
    while remaining:
        def sort_key(index: int) -> Tuple[int, int, int]:
            atom = atoms[index]
            size = 0
            if relations is not None and atom.predicate in relations:
                size = len(relations[atom.predicate])
            return (-_atom_bound_columns(atom, bound), size, index)

        best = min(remaining, key=sort_key)
        remaining.remove(best)
        order.append(best)
        bound |= atoms[best].variable_set()
    return order


class AtomStep:
    """One join step of a compiled plan (one body atom, analysed).

    Attributes
    ----------
    atom_index:
        The atom's position in the *original* rule body; evaluation-time
        overrides (semi-naive deltas) are keyed by this index.
    const_cols / bound_cols:
        The probe signature: ``(position, constant value)`` pairs and
        ``(position, slot)`` pairs restricting the index lookup.
    probe_columns / key_ops:
        The same signature pre-sorted for :meth:`Relation.probe`:
        ``probe_columns`` is the sorted tuple of restricted positions and
        ``key_ops`` builds the matching index key — ``(True, constant)`` or
        ``(False, slot)`` per position.
    check_cols:
        ``(position, earlier position)`` pairs for variables repeated within
        this atom whose first occurrence is also in this atom.
    store_cols:
        ``(position, slot)`` pairs introducing new slots, in slot order.
    """

    __slots__ = (
        "atom_index",
        "predicate",
        "const_cols",
        "bound_cols",
        "probe_columns",
        "key_ops",
        "check_cols",
        "store_cols",
    )

    def __init__(
        self,
        atom_index: int,
        predicate: str,
        const_cols: Tuple[Tuple[int, Value], ...],
        bound_cols: Tuple[Tuple[int, int], ...],
        check_cols: Tuple[Tuple[int, int], ...],
        store_cols: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.atom_index = atom_index
        self.predicate = predicate
        self.const_cols = const_cols
        self.bound_cols = bound_cols
        self.check_cols = check_cols
        self.store_cols = store_cols
        signature = {position: (True, value) for position, value in const_cols}
        signature.update({position: (False, slot) for position, slot in bound_cols})
        self.probe_columns = tuple(sorted(signature))
        self.key_ops = tuple(signature[position] for position in self.probe_columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AtomStep({self.predicate}@{self.atom_index} const={self.const_cols} "
            f"bound={self.bound_cols} check={self.check_cols} store={self.store_cols})"
        )


class CompiledRule:
    """A rule with its join order, probe signatures and projection precomputed.

    Build with :func:`compile_rule`; evaluate with :meth:`evaluate`.  A
    compiled rule is immutable and reusable across fixpoint iterations — the
    whole point is that :meth:`evaluate` does no planning work.
    """

    __slots__ = (
        "rule",
        "order",
        "steps",
        "head_ops",
        "producible",
        "initial_slots",
        "slot_count",
        "inputs",
        "first",
        "_kernels",
    )

    def __init__(
        self,
        rule: Rule,
        order: Tuple[int, ...],
        steps: Tuple[AtomStep, ...],
        head_ops: Tuple[Tuple[bool, object], ...],
        producible: bool,
        initial_slots: Tuple[Variable, ...],
        slot_count: int,
        inputs: int = 0,
        first: Optional[int] = None,
    ) -> None:
        self.rule = rule
        self.order = order
        self.steps = steps
        #: per head position: ``(True, constant value)`` or ``(False, slot)``
        self.head_ops = head_ops
        #: False when some head variable is bound by neither the body nor the
        #: initial bindings, so no grounded head tuple can ever be produced
        self.producible = producible
        #: variables pre-bound at compile time, in slot order (slots 0..k-1)
        self.initial_slots = initial_slots
        self.slot_count = slot_count
        #: leading steps that read the caller's own relations, not stored ones:
        #: joined like any atom, but no lookup is recorded for them
        self.inputs = inputs
        #: the body atom forced to the front (a delta variant's occurrence), if any
        self.first = first
        #: generated kernels by ``project`` (and the missing step, if any),
        #: each built on first use by :class:`repro.engine.kernels.Generated`
        self._kernels: Dict[object, Callable] = {}

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _initial(self, bindings: Optional[Mapping[Variable, Value]]) -> Tuple[Value, ...]:
        if not self.initial_slots:
            return ()
        if bindings is None:
            raise ValueError("compiled rule expects bindings for its bound variables")
        return tuple(bindings[variable] for variable in self.initial_slots)

    def resolve(
        self,
        relations: RelationMap,
        overrides: Optional[Mapping[int, Relation]] = None,
    ) -> Tuple[Tuple[Relation, ...], Optional[int]]:
        """The relation each step reads, and the first step whose relation is missing.

        ``overrides`` (original body-atom index → relation) comes first, then
        ``relations``.  A missing relation reads as :data:`ABSENT`; the first
        missing one past the ``inputs`` is where every executor stops, recording
        one restricted lookup with nothing examined.
        """
        resolved: List[Relation] = []
        missing = None
        for index, step in enumerate(self.steps):
            relation = None
            if overrides is not None:
                relation = overrides.get(step.atom_index)
            if relation is None:
                relation = relations.get(step.predicate)
                if relation is None:
                    relation = ABSENT
                    if missing is None and index >= self.inputs:
                        missing = index
            resolved.append(relation)
        return tuple(resolved), missing

    def dispatch_detail(self, missing: Optional[int]) -> str:
        """What a profile notes beside this plan's dispatch, given ``resolve``'s ``missing``."""
        return "" if missing is None else f"missing body relation {self.steps[missing].predicate}"

    def join(
        self,
        relations: RelationMap,
        stats: Optional[EvaluationStats] = None,
        overrides: Optional[Mapping[int, Relation]] = None,
        bindings: Optional[Mapping[Variable, Value]] = None,
    ) -> List[Tuple[Value, ...]]:
        """All satisfying assignments as slot tuples (no head projection).

        ``overrides`` maps original body-atom indexes to replacement relations
        (the semi-naive delta hook).  ``bindings`` supplies values for the
        variables declared ``bound`` at compile time; all of them must be
        given.
        """
        run = self._prepared(relations, kernels.EXECUTOR, active_profile(), overrides, project=False)
        return run(self._initial(bindings), stats)

    def evaluate(
        self,
        relations: RelationMap,
        stats: Optional[EvaluationStats] = None,
        overrides: Optional[Mapping[int, Relation]] = None,
        bindings: Optional[Mapping[Variable, Value]] = None,
    ) -> Set[Row]:
        """Head tuples derived by one application of the compiled rule."""
        if not self.producible:
            return set()
        run = self._prepared(relations, kernels.EXECUTOR, active_profile(), overrides)
        result = run(self._initial(bindings), stats)
        if stats is not None:
            stats.record_produced(len(result))
        return result

    def _prepared(
        self,
        relations: RelationMap,
        executor,
        profile,
        overrides: Optional[Mapping[int, Relation]] = None,
        project: bool = True,
    ) -> Callable[[Tuple[Value, ...], Optional[EvaluationStats]], Set[Row]]:
        """``run(initial, stats)`` over the resolved relations, its dispatch recorded on ``profile``."""
        if project and not self.producible:
            return lambda initial, stats: set()
        resolved, missing = self.resolve(relations, overrides)
        run = partial(executor.kernel(self, project, missing), resolved)
        if profile is None:
            return run
        dispatch, detail = executor.dispatch, self.dispatch_detail(missing)

        def profiled(initial, stats):
            profile.record_dispatch(self, dispatch, detail)
            return run(initial, stats)

        return profiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledRule({self.rule!s} order={self.order})"


def compile_rule(
    rule: Rule,
    relations: Optional[RelationMap] = None,
    bound: Sequence[Variable] = (),
    first: Optional[int] = None,
    inputs: int = 0,
) -> CompiledRule:
    """Compile ``rule`` into a reusable join plan.

    Parameters
    ----------
    rule:
        The rule to compile.
    relations:
        Optional name → relation map used only for the planner's size-based
        tie-breaking; sizes are read once, at compile time.
    bound:
        Variables that will be supplied as ``bindings`` at evaluation time
        (e.g. a query's selection constants); they occupy the first slots.
    first:
        Index of a body atom forced to the front of the join order (the
        semi-naive delta occurrence); the remaining atoms are planned greedily
        with that atom's variables counted as bound.
    inputs:
        How many leading body atoms are the caller's own relations (the Figure
        9 schema's selection and carry).  They head the join order as written,
        the rest is planned with their variables bound, and reading them is
        the driver at work, not a database lookup: neither executor records one.
    """
    slots: Dict[Variable, int] = {}
    for variable in bound:
        if variable not in slots:
            slots[variable] = len(slots)
    initial_slots = tuple(sorted(slots, key=slots.__getitem__))

    given = set(slots).union(*(atom.variable_set() for atom in rule.body[:inputs]))
    planned = plan_order(
        rule.body[inputs:], given, relations, first=None if first is None else first - inputs
    )
    order = [*range(inputs), *(inputs + index for index in planned)]

    steps: List[AtomStep] = []
    for atom_index in order:
        atom = rule.body[atom_index]
        const_cols: List[Tuple[int, Value]] = []
        bound_cols: List[Tuple[int, int]] = []
        check_cols: List[Tuple[int, int]] = []
        store_cols: List[Tuple[int, int]] = []
        first_position: Dict[Variable, int] = {}
        pending: List[Tuple[int, Variable]] = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                const_cols.append((position, arg.value))
            elif arg in slots:
                bound_cols.append((position, slots[arg]))
            elif arg in first_position:
                # repeated within this atom: the row must agree with the first
                # occurrence (the variable has no slot to probe with yet)
                check_cols.append((position, first_position[arg]))
            else:
                first_position[arg] = position
                pending.append((position, arg))
        for position, variable in pending:
            slots[variable] = len(slots)
            store_cols.append((position, slots[variable]))
        steps.append(
            AtomStep(
                atom_index,
                atom.predicate,
                tuple(const_cols),
                tuple(bound_cols),
                tuple(check_cols),
                tuple(store_cols),
            )
        )

    head_ops: List[Tuple[bool, object]] = []
    producible = True
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            head_ops.append((True, arg.value))
        elif arg in slots:
            head_ops.append((False, slots[arg]))
        else:
            producible = False
            head_ops.append((False, -1))

    return CompiledRule(
        rule,
        tuple(order),
        tuple(steps),
        tuple(head_ops),
        producible,
        initial_slots,
        len(slots),
        inputs,
        first,
    )


def prepare(
    plans: Iterable[CompiledRule],
    relations: RelationMap,
    overrides: Optional[Mapping[CompiledRule, Mapping[int, Relation]]] = None,
) -> Dict[CompiledRule, Callable[[Tuple[Value, ...], Optional[EvaluationStats]], Set[Row]]]:
    """:meth:`CompiledRule.evaluate` with the resolution done once, for plans applied many times.

    Reads the executor and the profile channel once and resolves each plan's
    body relations once; ``runs[plan](initial, stats)`` is then the head tuples
    under the ``bound`` slots ``initial`` — one kernel call.  ``overrides``
    gives a plan its body-atom replacements (the semi-naive delta of a delta
    variant), as :meth:`CompiledRule.evaluate` takes them.  The relation
    *objects* must not change while the runs are in use (their rows may);
    produced-tuple accounting is left to the caller, and each run returns a
    set of its own that the caller may keep or change.
    """
    executor = kernels.EXECUTOR
    profile = active_profile()
    overrides = overrides or {}
    return {
        plan: plan._prepared(relations, executor, profile, overrides.get(plan))
        for plan in plans
    }


class PlanCache:
    """Memoized :func:`compile_rule` keyed on ``(rule, first, bound, inputs)``.

    A compiled plan depends only on the rule, the forced-first atom, the
    compile-time bound variables and the leading inputs — never on relation
    contents — so callers that evaluate the same rule shapes repeatedly (a
    fixpoint, an incremental maintenance stream) pay the compilation cost
    once per shape.  View maintenance also keeps here what it prepares
    from them (:meth:`_keep`), so a view's steady commit resolves nothing.
    """

    def __init__(self) -> None:
        self._plans: Dict[Tuple[Rule, Optional[int], Tuple[Variable, ...], int], CompiledRule] = {}
        #: ``key -> (executor, ((name, relation or None), ...), value)``
        self._kept: Dict[object, tuple] = {}

    def _keep(self, key: object, relations: RelationMap, build: Callable[[], Tuple[Iterable[str], object]]):
        """What ``build()`` returns beside the relation names it read, kept under ``key``
        until :data:`kernels.EXECUTOR` or one of those names' objects in ``relations``
        changes (an absent relation since created included); under an armed
        profile every call builds, keeping nothing, so it sees each dispatch."""
        executor = kernels.EXECUTOR
        if active_profile() is not None:
            return build()[1]
        kept = self._kept.get(key)
        if kept is not None and kept[0] is executor and all(relations.get(n) is r for n, r in kept[1]):
            return kept[2]
        names, value = build()
        self._kept[key] = (executor, tuple((name, relations.get(name)) for name in names), value)
        return value

    def get(
        self,
        rule: Rule,
        relations: Optional[RelationMap] = None,
        first: Optional[int] = None,
        bound: Tuple[Variable, ...] = (),
        stats: Optional[EvaluationStats] = None,
        inputs: int = 0,
    ) -> CompiledRule:
        """The memoized compiled plan; compiles (and counts it) on first use."""
        return self._plan((rule, first, bound, inputs), rule, relations, first, bound, stats, inputs)

    def _plan(self, key, rule, relations, first, bound, stats, inputs=0) -> CompiledRule:
        plan = self._plans.get(key)
        profile = active_profile()
        if profile is not None:
            profile.record_plan_cache(plan is not None)
        if plan is None:
            plan = self._plans[key] = compile_rule(rule, relations, bound=bound, first=first, inputs=inputs)
            if stats is not None:
                stats.record_plans_compiled()
        return plan


class Compiled:
    """What is compiled for one program, kept on the program itself (:func:`compiled`),
    so it lives exactly as long as the program.  No relation contents, no selection
    constants: each memo is keyed on a query *shape* by the module that fills it."""

    def __init__(self) -> None:
        #: ``(group, rules, base rules, recursive rules)`` per stratum (``program_strata``)
        self.strata: Optional[tuple] = None
        #: the default optimizer chain's results, query plans, schema plans (or the
        #: refusal saying why none applies) and magic rewritings, by query shape
        self.optimized, self.query_plans, self.schemas, self.magic = {}, {}, {}, {}
        self._joins = PlanCache()

    def plan(self, rule: Rule, relations: Optional[RelationMap] = None, first: Optional[int] = None,
             bound: Tuple[Variable, ...] = (), stats: Optional[EvaluationStats] = None) -> CompiledRule:
        """:func:`compile_rule` kept per join order: :func:`plan_order` over the current
        sizes picks the order, and the plan compiled for it serves every later call that
        picks it again (:meth:`PlanCache.get`'s accounting)."""
        order = tuple(plan_order(rule.body, set(bound), relations, first))
        return self._joins._plan((rule, first, bound, order), rule, relations, first, bound, stats)


def compiled(program) -> Compiled:
    """The :class:`Compiled` object of ``program`` (or of an unfolded definition, which
    keeps its strings' plans), made on first use and kept on it."""
    kept = program.__dict__.get("_compiled")
    if kept is None:
        kept = program.__dict__.setdefault("_compiled", Compiled())
    return kept


def compile_delta_variants(
    get: Callable[..., CompiledRule],
    rules: Iterable[Rule],
    delta_predicates: Iterable[str],
    relations: Optional[RelationMap] = None,
) -> List[Tuple[str, int, CompiledRule]]:
    """One compiled plan per occurrence of a delta predicate in a body of ``rules``.

    Returns ``(delta predicate, occurrence index, compiled variant)`` triples;
    each variant forces its occurrence to the front of the join order and
    reads it through ``overrides={occurrence index: delta relation}``.  ``get``
    compiles one — :func:`compile_rule`, or a :meth:`PlanCache.get` to reuse
    variants across calls.  Every delta driver collects its plans here: the
    fixpoint, the maintenance closures (recursive and externally changed
    predicates), and EXPLAIN.
    """
    return [
        (atom.predicate, index, get(rule, relations, first=index))
        for rule in rules
        for index, atom in enumerate(rule.body)
        if atom.predicate in delta_predicates
    ]
