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
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.database import Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program
from .columnar import build_group_executor, columnar_enabled, columnar_forced
from .compile import PlanCache, compile_delta_variants, compile_program_rules, prepare
from .instrumentation import EvaluationStats, active_profile
from .strata import cached_evaluation_strata, evaluation_strata, group_is_recursive

#: stable detail strings for profile `StratumDecision` records (asserted by
#: the differential harness's profile-consistency checks, so keep them fixed)
DECISION_COLUMNAR_OFF = "columnar-off"
DECISION_NO_TEMPLATE = "no-batch-template"
DECISION_FORCED = "forced"
DECISION_PROFITABLE = "score>=threshold"
DECISION_UNPROFITABLE = "score<threshold"


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
    group_set = set(group)
    rules = [rule for predicate in group for rule in program.rules_for(predicate)]
    recursive_rules = [rule for rule in rules if any(p in group_set for p in rule.body_predicates())]
    base_rules = [rule for rule in rules if rule not in recursive_rules]
    base_plans = compile_program_rules(base_rules, relations)
    stats.record_plans_compiled(len(base_plans))

    # One delta relation per group predicate for the whole stratum: it holds
    # the tuples new in the previous iteration and takes over each round's
    # discoveries at the round boundary, so the delta variants resolve it once
    # and a join that probes it keeps its registered index.
    current: Dict[str, Relation] = {p: Relation(f"delta_{p}", derived[p].arity) for p in group}

    # Initialisation: pre-existing facts for the group's predicates (e.g. a
    # magic seed placed in the database) count as freshly derived, then the
    # nonrecursive rules are applied once.
    for predicate in group:
        current[predicate].union_update(derived[predicate].rows())
    stats.record_iteration()
    for plan in base_plans:
        target = derived[plan.rule.head.predicate]
        delta = current[plan.rule.head.predicate]
        fresh_rows = plan.evaluate(relations, stats=stats) - target.rows()
        if fresh_rows:
            target.union_update(fresh_rows)
            delta.union_update(fresh_rows)
            stats.record_produced(len(fresh_rows))

    if not group_is_recursive(program, group):
        return

    # One compiled plan per occurrence of a group predicate in a recursive
    # rule body, reused verbatim by every delta iteration below.
    delta_plans = []
    for rule in recursive_rules:
        delta_plans.extend(compile_delta_variants(rule, group_set, relations))
    stats.record_plans_compiled(len(delta_plans))

    # Columnar batch execution: when every delta variant fits a vectorizable
    # template (and the workload looks fat enough to amortize it — or
    # ``REPRO_COLUMNAR=force`` says to go regardless), the whole delta
    # iteration runs set-at-a-time with identical results and identical
    # instrumentation totals; otherwise the kernel loop below runs as before.
    if columnar_enabled():
        executor = build_group_executor(group, delta_plans, relations, derived, current)
        if executor is not None:
            score = None if columnar_forced() else executor.profit_score()
            if score is None or score >= executor.PROFIT_THRESHOLD:
                if profile is not None:
                    profile.record_group(
                        stratum,
                        group,
                        "columnar",
                        score=score,
                        detail=DECISION_FORCED if score is None else DECISION_PROFITABLE,
                    )
                executor.stratum_index = stratum
                executor.run(stats)
                return
            if profile is not None:
                profile.record_group(
                    stratum, group, "kernel-loop", score=score, detail=DECISION_UNPROFITABLE
                )
        elif profile is not None:
            profile.record_group(stratum, group, "kernel-loop", detail=DECISION_NO_TEMPLATE)
    elif profile is not None:
        profile.record_group(stratum, group, "kernel-loop", detail=DECISION_COLUMNAR_OFF)

    # Iterate: apply recursive rules to the deltas only.  The dispatch (kernel
    # or interpreted join, which relations) is decided here, once.
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
        stats.record_state(
            delta_total,
            sum(len(current[p]) * derived[p].arity for p in group),
        )
        if profile is not None:
            iteration += 1
            iteration_started = _perf()
        fresh: Dict[str, Set[Row]] = {}
        for delta_relation, head, run in steps:
            if delta_relation.is_empty():
                continue
            produced = run((), stats)
            stats.record_produced(len(produced))
            produced -= derived[head].rows()
            if head in fresh:
                fresh[head] |= produced
            else:
                fresh[head] = produced
        for predicate in group:
            rows = fresh.get(predicate) or set()
            if rows:
                stats.record_produced(derived[predicate].union_update(rows))
            current[predicate].replace_rows(rows)
        if profile is not None:
            profile.record_iteration(
                stratum, iteration, delta_total, _perf() - iteration_started
            )


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
    """Close one stratum over freshly inserted tuples (one delta round).

    ``derived`` holds the group's materialized relations, already containing
    the direct ``seeds``; ``external`` maps changed *non-group* predicate
    names to their inserted rows, with ``relations`` reading the post-change
    state everywhere.  Two phases, both riding the compiled delta variants of
    :mod:`repro.engine.compile`:

    1. every occurrence of an externally changed predicate in a group rule is
       evaluated once with that occurrence overridden by the delta (any new
       derivation must use at least one inserted tuple, so this finds them
       all — possibly enumerating a derivation twice, which set semantics
       absorbs);
    2. the newly derived group tuples seed the ordinary semi-naive delta
       iteration of the group's recursive rules until no tuple is new.

    ``cache`` memoizes the compiled plans across calls (an update stream pays
    compilation once per rule shape); without one, plans compile per call,
    exactly as the fixpoint engine compiles per fixpoint.

    Returns the rows this call added to each group relation (seeds included).
    """
    cache = cache if cache is not None else PlanCache()
    group_set = set(group)
    inserted: Dict[str, Set[Row]] = {p: set(seeds.get(p, ())) for p in group}
    rules = [rule for predicate in group for rule in program.rules_for(predicate)]

    changed = {name for name, rows in external.items() if rows and name not in group_set}
    if changed:
        overlays = {
            name: Relation(f"delta_{name}", program.arity_of(name), external[name])
            for name in changed
            if name in program.predicates()
        }
        for rule in rules:
            for index, atom in enumerate(rule.body):
                if atom.predicate not in overlays:
                    continue
                plan = cache.get(rule, relations, first=index, stats=stats)
                target = derived[rule.head.predicate]
                produced = plan.evaluate(relations, stats=stats, overrides={index: overlays[atom.predicate]})
                new_rows = produced - target.rows()
                if new_rows:
                    target.union_update(new_rows)
                    inserted[rule.head.predicate] |= new_rows
                    stats.record_produced(len(new_rows))

    if group_is_recursive(program, group) and any(inserted.values()):
        group_rules = [rule for rule in rules if any(p in group_set for p in rule.body_predicates())]
        delta_plans = []
        for rule in group_rules:
            for index, atom in enumerate(rule.body):
                if atom.predicate in group_set:
                    plan = cache.get(rule, relations, first=index, stats=stats)
                    delta_plans.append((atom.predicate, index, plan))

        current = {p: Relation(f"delta_{p}", derived[p].arity, inserted[p]) for p in group}
        spare = {p: Relation(f"delta_{p}", derived[p].arity) for p in group}
        while any(not current[p].is_empty() for p in group):
            stats.record_iteration()
            stats.record_state(
                sum(len(current[p]) for p in group),
                sum(len(current[p]) * derived[p].arity for p in group),
            )
            for delta_predicate, occurrence, plan in delta_plans:
                delta_relation = current[delta_predicate]
                if delta_relation.is_empty():
                    continue
                head = plan.rule.head.predicate
                produced = plan.evaluate(relations, stats=stats, overrides={occurrence: delta_relation})
                new_rows = produced - derived[head].rows()
                if new_rows:
                    spare[head].union_update(new_rows)
            for predicate in group:
                added_rows = spare[predicate].rows() - derived[predicate].rows()
                if added_rows:
                    derived[predicate].union_update(added_rows)
                    inserted[predicate] |= added_rows
                    stats.record_produced(len(added_rows))
                stale = current[predicate]
                stale.clear()
                current[predicate] = spare[predicate]
                spare[predicate] = stale

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
    or base facts of IDB predicates).  One delta round per stratum — seeded
    by the inserted tuples instead of the whole relations — brings ``derived``
    to the new minimal model in place, and the per-IDB sets of rows actually
    added are returned.  This is the insertion half of incremental view
    maintenance (:mod:`repro.incremental`): the same compiled delta variants
    the fixpoint uses across iterations, reused across *time*.

    Maintenance joins run through the generated kernels like every other
    compiled-plan evaluation, over the materialized relations the view
    serves to queries directly.
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
