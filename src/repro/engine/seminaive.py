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
two-function policy: which produced rows are new, and where they go.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter as _perf
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.database import Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from .columnar import _GroupExecutor, build_group_executor
from .compile import CompiledRule, PlanCache, compile_delta_variants, compile_program_rules, compile_rule, prepare
from .instrumentation import EvaluationStats, active_profile
from .strata import cached_evaluation_strata, evaluation_strata

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
    database is not modified.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    relations, derived = seed_derived(program, database)
    for stratum, group in enumerate(evaluation_strata(program)):
        _evaluate_group(program, group, relations, derived, stats, stratum)
    stats.stop_timer()
    return derived


def stratum_rules(program: Program, group: Sequence[str]) -> Tuple[List[Rule], List[Rule], List[Rule]]:
    """``(rules, base rules, recursive rules)`` of one stratum, each in program
    order; a recursive rule's body reads a predicate of the group."""
    rules = [rule for predicate in group for rule in program.rules_for(predicate)]
    group_set = set(group)
    recursive_rules = [rule for rule in rules if not group_set.isdisjoint(rule.body_predicates())]
    return rules, [rule for rule in rules if rule not in recursive_rules], recursive_rules


def fixpoint_plans(program: Program, relations: Optional[Dict[str, Relation]] = None) -> List[CompiledRule]:
    """The joins :func:`seminaive_evaluate` compiles for ``program``, stratum by stratum.

    Per stratum the base rules as written, then one delta variant per
    occurrence of a group predicate in a recursive rule: what
    :func:`_evaluate_group` collects, so EXPLAIN shows the run's rules and
    delta occurrences.  The rest of a join order may still differ — the run
    compiles against what it has derived so far, and sizes break planner ties.
    """
    plans: List[CompiledRule] = []
    for group in evaluation_strata(program):
        _rules, base_rules, recursive_rules = stratum_rules(program, group)
        plans += compile_program_rules(base_rules, relations)
        variants = compile_delta_variants(compile_rule, recursive_rules, group, relations)
        plans += [plan for _predicate, _occurrence, plan in variants]
    return plans


def _evaluate_group(
    program: Program,
    group: List[str],
    relations: Dict[str, Relation],
    derived: Dict[str, Relation],
    stats: EvaluationStats,
    stratum: int = 0,
) -> None:
    """Evaluate one stratum (a set of mutually recursive predicates) to fixpoint."""
    profile = active_profile()
    if profile is not None:
        profile.record_stratum(stratum, group)
    _rules, base_rules, recursive_rules = stratum_rules(program, group)
    base_plans = compile_program_rules(base_rules, relations)
    stats.record_plans_compiled(len(base_plans))

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
    delta_plans = compile_delta_variants(compile_rule, recursive_rules, group, relations)
    stats.record_plans_compiled(len(delta_plans))

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
    delta_rounds(group, delta_plans, relations, current, policy, stats, stratum)


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


def delta_rounds(
    group: Sequence[str],
    delta_plans: List[Tuple[str, int, CompiledRule]],
    relations: Dict[str, Relation],
    current: Dict[str, Relation],
    policy: Policy,
    stats: EvaluationStats,
    stratum: int = 0,
) -> None:
    """The semi-naive delta loop: apply the delta variants until no delta holds a row.

    ``current`` maps each group predicate to its delta relation, seeded by the
    caller.  A round joins every variant whose delta is non-empty, keeps what
    the policy calls new, and at the round boundary absorbs it and hands it on
    as the next delta.  Each join's relations are resolved here, once, and a
    delta relation is one object for the whole loop, so a join that probes it
    keeps its registered index.
    """
    fresh, absorb = policy
    profile = active_profile()
    runs = prepare(
        (plan for _predicate, _occurrence, plan in delta_plans),
        relations,
        overrides={plan: {occurrence: current[p]} for p, occurrence, plan in delta_plans},
    )
    steps = [
        (current[p], plan.rule.head.predicate, runs[plan]) for p, _occurrence, plan in delta_plans
    ]
    iteration = 0
    while any(not current[p].is_empty() for p in group):
        stats.record_iteration()
        delta_total = sum(len(current[p]) for p in group)
        stats.record_state(delta_total, sum(len(current[p]) * current[p].arity for p in group))
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
        for predicate in group:
            rows = found.get(predicate) or set()
            if rows:
                absorb(predicate, rows)
            current[predicate].replace_rows(rows)
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
    changed rows.  Two phases, both riding the delta variants ``cache``
    compiles once per rule shape for a whole update stream:

    1. every occurrence of an externally changed predicate in a group rule is
       evaluated once, overridden by its delta (a derivation the change touches
       uses a changed tuple, so this finds them all — one possibly twice, which
       set semantics absorbs);
    2. the seeds and what phase 1 found new start :func:`delta_rounds` over
       the group's recursive rules.
    """
    fresh, absorb = policy
    get = partial(cache.get, stats=stats)
    rules, _base_rules, recursive_rules = stratum_rules(program, group)
    names = {name for name, rows in external.items() if rows and name not in group}
    variants = compile_delta_variants(get, rules, names, relations)
    if not variants and not any(seeds.values()):
        return
    current = {p: Relation(f"delta_{p}", program.arity_of(p), seeds.get(p)) for p in group}
    deltas = {
        name: Relation(f"delta_{name}", program.arity_of(name), external[name])
        for name in {name for name, _occurrence, _plan in variants}
    }
    runs = prepare(
        (plan for _name, _occurrence, plan in variants),
        relations,
        overrides={plan: {occurrence: deltas[name]} for name, occurrence, plan in variants},
    )
    for _name, _occurrence, plan in variants:
        head = plan.rule.head.predicate
        produced = runs[plan]((), stats)
        stats.record_produced(len(produced))
        rows = fresh(head, produced)
        if rows:
            absorb(head, rows)
            current[head].union_update(rows)
    if recursive_rules and any(not delta.is_empty() for delta in current.values()):
        delta_plans = compile_delta_variants(get, recursive_rules, group, relations)
        delta_rounds(group, delta_plans, relations, current, policy, stats)


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
    for group in cached_evaluation_strata(program):
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
