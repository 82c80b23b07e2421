"""Semi-naive bottom-up fixpoint evaluation.

Semi-naive evaluation is the standard "good general algorithm" the paper
contrasts the one-sided schema against: each iteration re-derives only the
consequences of the *delta* (tuples new in the previous iteration), so no
derivation is repeated.  It is complete for arbitrary positive Datalog and is
the evaluator used underneath the magic-sets and counting baselines.

The fixpoint reads the database's own relations and joins over the stored
values as they are: nothing is re-encoded on the way in or decoded on the way
out, the relations handed back are the ones the fixpoint built, and the probe
indexes the joins register stay on the caller's relations for the next
evaluation (rows and ``version`` untouched).

The delta loop over ``Relation`` deltas is written once (:func:`delta_rounds`;
:func:`close_group` wraps it for a stratum whose inputs changed).  The fixpoint,
insertion maintenance and DRed's over-delete (:mod:`repro.incremental.dred`)
run it over the same :func:`compile_delta_variants` and differ only in a
two-function policy: which produced rows are new, and where they go.  The
fixpoint prepares its steps per stratum; :func:`close_group` keeps them in the
caller's :class:`PlanCache` (a view's, for the view's life).
"""

from __future__ import annotations

from functools import partial
from time import perf_counter as _perf
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.database import Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program
from .columnar import _GroupExecutor, build_group_executor
from .compile import CompiledRule, PlanCache, compile_delta_variants, compiled, prepare
from .instrumentation import EvaluationStats, active_profile
from .strata import program_strata, stratum_rules

#: stable detail strings for profile `StratumDecision` records (the
#: end-to-end benchmark and the differential harness read them, so keep them fixed)
DECISION_NO_TEMPLATE = "no-batch-template"
DECISION_PROFITABLE = "score>=threshold"
DECISION_UNPROFITABLE = "score<threshold"

#: ``(executor to run, or None for the kernel loop; profit score; detail)``
Decision = Tuple[Optional[_GroupExecutor], Optional[float], str]


def batch_decision(build: Callable[[], Optional[_GroupExecutor]]) -> Decision:
    """The product's decision for a recursive stratum: run the executor ``build()``
    makes when the stratum has a batch template and its score reaches the threshold."""
    executor = build()
    if executor is None:
        return None, None, DECISION_NO_TEMPLATE
    score = executor.profit_score()
    if score >= executor.PROFIT_THRESHOLD:
        return executor, score, DECISION_PROFITABLE
    return None, score, DECISION_UNPROFITABLE


#: the decision every recursive stratum takes; nothing in the product replaces
#: it (:func:`repro.testing.reference.batching` does, for a test's scope)
BATCH_DECISION = batch_decision


def seed_derived(
    program: Program, database: Database
) -> Tuple[Dict[str, Relation], Dict[str, Relation]]:
    """``(relations, derived)`` at the start of a from-scratch fixpoint.

    ``derived`` holds one fresh relation per IDB predicate, seeded with a copy
    of any base facts stored under the predicate's own name; ``relations``
    reads those for the IDB predicates and the database's own relations for
    everything else.
    """
    derived: Dict[str, Relation] = {}
    for predicate in program.idb_predicates():
        derived[predicate] = Relation(predicate, program.arity_of(predicate))
        if database.has_relation(predicate):
            derived[predicate].union_update(database.relation(predicate).rows())
    return overlay_relations(database, derived), derived


def seminaive_evaluate(
    program: Program,
    database: Database,
    stats: Optional[EvaluationStats] = None,
) -> Dict[str, Relation]:
    """Compute the minimal model's IDB relations by semi-naive iteration.

    Returns a map from IDB predicate name to its derived relation.  The input
    database is not modified.  The join plans are the program's, kept per join order.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    relations, derived = seed_derived(program, database)
    for stratum, (group, _rules, _base, _recursive) in enumerate(program_strata(program)):
        _evaluate_group(program, group, relations, derived, stats, stratum)
    stats.stop_timer()
    return derived


def fixpoint_plans(program: Program, relations: Optional[Dict[str, Relation]] = None) -> List[CompiledRule]:
    """The joins :func:`seminaive_evaluate` runs for ``program``, stratum by stratum.

    Per stratum the base rules as written, then one delta variant per
    occurrence of a group predicate in a recursive rule: what
    :func:`_evaluate_group` collects, so EXPLAIN shows the run's rules and
    delta occurrences, as the program's kept plans.  The rest of a join order
    may still differ — the run plans against what it has derived so far, and
    sizes break planner ties.
    """
    plan = compiled(program).plan
    plans: List[CompiledRule] = []
    for group, _rules, base_rules, recursive_rules in program_strata(program):
        plans += [plan(rule, relations) for rule in base_rules]
        plans += [variant for _predicate, _occurrence, variant in compile_delta_variants(
            plan, recursive_rules, group, relations)]
    return plans


def _evaluate_group(
    program: Program,
    group: List[str],
    relations: Dict[str, Relation],
    derived: Dict[str, Relation],
    stats: EvaluationStats,
    stratum: int = 0,
) -> None:
    """Evaluate stratum number ``stratum`` (the mutually recursive predicates ``group``) to fixpoint."""
    profile = active_profile()
    if profile is not None:
        profile.record_stratum(stratum, group)
    _group, _rules, base_rules, recursive_rules = program_strata(program)[stratum]
    get = partial(compiled(program).plan, stats=stats)
    base_plans = [get(rule, relations) for rule in base_rules]

    # Initialisation: pre-existing facts for the group's predicates (e.g. a
    # magic seed placed in the database) count as freshly derived, then the
    # nonrecursive rules are applied once.
    current: Dict[str, Relation] = {p: Relation(f"delta_{p}", derived[p].arity) for p in group}
    for predicate in group:
        current[predicate].union_update(derived[predicate].rows())
    stats.record_iteration()
    policy = fresh, absorb = _growing(derived, stats)
    for plan in base_plans:
        head = plan.rule.head.predicate
        rows = fresh(head, plan.evaluate(relations, stats=stats))
        if rows:
            absorb(head, rows)
            current[head].union_update(rows)

    if not recursive_rules:
        return
    delta_plans = compile_delta_variants(get, recursive_rules, group, relations)

    # Columnar batch execution: when every delta variant fits a vectorizable
    # template and the workload looks fat enough to amortize it, the whole
    # delta iteration runs set-at-a-time with identical results and identical
    # instrumentation totals; otherwise the kernel loop below runs.
    build = partial(build_group_executor, group, delta_plans, relations, derived, current)
    executor, score, detail = BATCH_DECISION(build)
    if profile is not None:
        dispatch = "kernel-loop" if executor is None else "columnar"
        profile.record_group(stratum, group, dispatch, score=score, detail=detail)
    if executor is not None:
        executor.stratum_index = stratum
        executor.run(stats)
        return
    delta_rounds(_delta_steps(delta_plans, relations, current), current, policy, stats, stratum)


#: what a closure does with a delta join's output: ``fresh(head, produced)``
#: keeps the rows that are new (``produced`` is its to change in place), and
#: ``absorb(predicate, rows)`` puts a round's new rows where they go
Policy = Tuple[Callable[[str, Set[Row]], Set[Row]], Callable[[str, Set[Row]], None]]


def _growing(
    derived: Dict[str, Relation],
    stats: EvaluationStats,
    inserted: Optional[Dict[str, Set[Row]]] = None,
) -> Policy:
    """The policy that grows ``derived``: a row it lacks is new and joins it (and ``inserted``)."""

    def fresh(head: str, produced: Set[Row]) -> Set[Row]:
        produced -= derived[head].rows()
        return produced

    def absorb(predicate: str, rows: Set[Row]) -> None:
        stats.record_produced(derived[predicate].union_update(rows))
        if inserted is not None:
            inserted[predicate] |= rows

    return fresh, absorb


def _delta_steps(
    delta_plans: List[Tuple[str, int, CompiledRule]],
    relations: Dict[str, Relation],
    deltas: Dict[str, Relation],
) -> List[Tuple[Relation, str, Callable]]:
    """``(delta relation, head, run)`` per delta variant: prepared (:func:`prepare`) over
    ``relations``, reading its occurrence from ``deltas``' relation for it."""
    runs = prepare(
        (plan for _predicate, _occurrence, plan in delta_plans),
        relations,
        overrides={plan: {occurrence: deltas[p]} for p, occurrence, plan in delta_plans},
    )
    return [(deltas[p], plan.rule.head.predicate, runs[plan]) for p, _occurrence, plan in delta_plans]


def delta_rounds(
    steps: List[Tuple[Relation, str, Callable]],
    current: Dict[str, Relation],
    policy: Policy,
    stats: EvaluationStats,
    stratum: int = 0,
) -> None:
    """The semi-naive delta loop: apply the delta variants until no delta holds a row.

    ``current`` maps each group predicate, in group order, to its delta
    relation, seeded by the caller; ``steps`` read those relations
    (:func:`_delta_steps`), so a join that probes a delta keeps its registered
    index.  A round joins every variant whose delta is non-empty, keeps what
    the policy calls new, and at the round boundary absorbs it and hands it
    on as the next delta, counting the next round's state as it goes.
    """
    fresh, absorb = policy
    profile = active_profile()
    tuples = sum(map(len, current.values()))
    columns = sum(len(relation) * relation.arity for relation in current.values())
    iteration = 0
    while tuples:
        stats.record_iteration()
        stats.record_state(tuples, columns)
        if profile is not None:
            iteration += 1
            iteration_started = _perf()
        found: Dict[str, Set[Row]] = {}
        for delta_relation, head, run in steps:
            if delta_relation.is_empty():
                continue
            produced = run((), stats)
            stats.record_produced(len(produced))
            produced = fresh(head, produced)
            if head in found:
                found[head] |= produced
            else:
                found[head] = produced
        delta_total, tuples, columns = tuples, 0, 0
        for predicate, relation in current.items():
            rows = found.get(predicate)
            if rows:
                absorb(predicate, rows)
                tuples += len(rows)
                columns += len(rows) * relation.arity
            relation.replace_rows(rows or set())
        if profile is not None:
            profile.record_iteration(stratum, iteration, delta_total, _perf() - iteration_started)


def close_group(
    program: Program,
    group: Sequence[str],
    relations: Dict[str, Relation],
    seeds: Mapping[str, Set[Row]],
    external: Mapping[str, Set[Row]],
    policy: Policy,
    stats: EvaluationStats,
    cache: PlanCache,
) -> None:
    """Close one stratum over a change, under the caller's ``policy``.

    ``seeds`` are changed rows of the group's own predicates, already where
    they go; ``external`` maps changed *non-group* predicate names to their
    changed rows.  Two phases, both riding delta variants that ``cache``
    compiles once per rule shape and keeps prepared per (stratum, changed
    names) for a whole update stream:

    1. every occurrence of an externally changed predicate in a group rule is
       evaluated once, overridden by its delta (a derivation the change touches
       uses a changed tuple, so this finds them all — one possibly twice, which
       set semantics absorbs);
    2. the seeds and what phase 1 found new start :func:`delta_rounds` over
       the group's recursive rules, whose steps are prepared the first time a
       call has a delta for them (so each plan compiles when, and against the
       relation sizes, a per-call compile would).
    """
    fresh, absorb = policy
    get = partial(cache.get, stats=stats)
    names = frozenset(name for name, rows in external.items() if rows and name not in group)

    def build() -> Tuple[Set[str], list]:
        rules, _base_rules, recursive = stratum_rules(program, group)
        variants = compile_delta_variants(get, rules, names, relations)
        deltas = {name: Relation(f"delta_{name}", program.arity_of(name)) for name, _i, _plan in variants}
        current = {p: Relation(f"delta_{p}", program.arity_of(p)) for p in group}
        # [group deltas, changed names' deltas, their steps, recursive rules, their steps]
        kept = [current, deltas, _delta_steps(variants, relations, deltas), recursive, None]
        return {atom.predicate for rule in rules for atom in rule.body}, kept

    kept = cache._keep((program, tuple(group), names), relations, build)
    current, deltas, variants, recursive, steps = kept
    if not variants and not any(seeds.values()):
        return
    for p, relation in current.items():
        relation.replace_rows(set(seeds.get(p, ())))
    for name, relation in deltas.items():
        relation.replace_rows(external[name])
    for _delta, head, run in variants:
        produced = run((), stats)
        stats.record_produced(len(produced))
        rows = fresh(head, produced)
        if rows:
            absorb(head, rows)
            current[head].union_update(rows)
    if recursive and any(current.values()):
        if steps is None:
            kept[4] = steps = _delta_steps(compile_delta_variants(get, recursive, group, relations), relations, current)
        delta_rounds(steps, current, policy, stats)


def overlay_relations(database: Database, derived: Dict[str, Relation]) -> Dict[str, Relation]:
    """Name → relation map with derived IDB relations shadowing stored ones.

    The shared construction for every maintenance entry point: rules read the
    materialized IDB state, everything else reads the database.
    """
    relations: Dict[str, Relation] = {r.name: r for r in database.relations()}
    relations.update(derived)
    return relations


def group_insert_closure(
    program: Program,
    group: List[str],
    relations: Dict[str, Relation],
    derived: Dict[str, Relation],
    seeds: Dict[str, Set[Row]],
    external: Dict[str, Set[Row]],
    stats: EvaluationStats,
    cache: Optional[PlanCache] = None,
) -> Dict[str, Set[Row]]:
    """Close one stratum over freshly inserted tuples: :func:`close_group`, growing ``derived``.

    ``derived`` holds the group's materialized relations, already containing
    the direct ``seeds``; ``external`` maps changed *non-group* predicate
    names to their inserted rows, with ``relations`` reading the post-change
    state everywhere.  Without a ``cache`` plans compile per call, as the
    fixpoint's do.  Returns the rows added per group relation (seeds included).
    """
    inserted: Dict[str, Set[Row]] = {p: set(seeds.get(p, ())) for p in group}
    cache = cache if cache is not None else PlanCache()
    policy = _growing(derived, stats, inserted)
    close_group(program, group, relations, seeds, external, policy, stats, cache)
    return inserted


def propagate_insertions(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
    deltas: Dict[str, Set[Row]],
    stats: Optional[EvaluationStats] = None,
    cache: Optional[PlanCache] = None,
) -> Dict[str, Set[Row]]:
    """Continue a finished fixpoint after base-fact insertions.

    ``derived`` is the materialized minimal model of ``program`` over the
    database *before* the insertion; ``database`` is the database *after* it;
    ``deltas`` maps relation names to the rows just inserted (EDB relations,
    or base facts of IDB predicates).  One closure per stratum — seeded by the
    inserted tuples instead of the whole relations — brings ``derived`` to the
    new minimal model in place, and the per-IDB sets of rows actually added
    are returned.  This is the insertion half of incremental view maintenance
    (:mod:`repro.incremental`): the delta variants the fixpoint uses across
    iterations, reused across *time*, over the relations the view serves.
    """
    stats = stats if stats is not None else EvaluationStats()
    cache = cache if cache is not None else PlanCache()
    relations = overlay_relations(database, derived)
    known = program.predicates()
    external: Dict[str, Set[Row]] = {
        name: set(rows) for name, rows in deltas.items() if rows and name in known
    }
    inserted_total: Dict[str, Set[Row]] = {p: set() for p in derived}
    for group, _rules, _base, _recursive in program_strata(program):
        seeds: Dict[str, Set[Row]] = {p: set() for p in group}
        for predicate in group:
            # base facts inserted directly into a group predicate's relation
            for row in external.get(predicate, ()):
                if derived[predicate].add(row):
                    seeds[predicate].add(row)
                    stats.record_produced()
        inserted = group_insert_closure(
            program, group, relations, derived, seeds, external, stats, cache
        )
        for predicate in group:
            if inserted[predicate]:
                inserted_total[predicate] |= inserted[predicate]
                external[predicate] = inserted[predicate]
    total = sum(len(rows) for rows in inserted_total.values())
    if total:
        stats.record_inserted(total)
    return inserted_total


def seminaive_query(
    program: Program,
    database: Database,
    predicate: str,
    bindings: Optional[Dict[int, object]] = None,
    stats: Optional[EvaluationStats] = None,
) -> Tuple[Set[Row], EvaluationStats]:
    """Answer a ``column = constant`` selection by full semi-naive evaluation + selection.

    This is the "evaluate everything, then select" strategy that the paper's
    one-sided algorithms are designed to beat when the selection is narrow.
    """
    stats = stats if stats is not None else EvaluationStats()
    derived = seminaive_evaluate(program, database, stats)
    if predicate not in derived:
        return set(), stats
    relation = derived[predicate]
    bindings = bindings or {}
    answers = {row for row in relation if all(row[c] == v for c, v in bindings.items())}
    return answers, stats
