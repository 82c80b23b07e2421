"""DRed (delete-and-rederive) view maintenance for recursive programs.

Counting maintenance breaks on recursion: two tuples supporting each other
through a cycle keep positive counts after their last external derivation is
deleted.  DRed (Gupta–Mumick–Subrahmanian) stays exact by splitting deletion
into three phases:

1. **overestimate** — propagate the deleted base facts through every rule
   (one delta-first compiled join per affected occurrence, iterated through
   recursive strata), marking every derived tuple that has *some* derivation
   using a deleted tuple;
2. **remove** — discard the whole overestimate from the view;
3. **rederive** — for each removed tuple, check whether an alternative
   derivation survives in the pruned state (a bound-head compiled probe per
   candidate, plus the base relation when the predicate stores facts under
   its own name), and put the survivors back through the ordinary insertion
   delta round (:func:`repro.engine.seminaive.group_insert_closure`), which
   reinstates anything downstream of them.

Insertions don't need any of this: the fixpoint is monotone, so a single
seeded semi-naive delta round
(:func:`repro.engine.seminaive.propagate_insertions`) is exact.

The overestimate runs *before* the database mutates (it must see the old
state to find derivations through the dying tuples); removal and
rederivation run *after* (they must not resurrect anything through them).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from ..datalog.atoms import atoms_variables
from ..datalog.database import Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable, is_variable
from ..engine.compile import PlanCache, RelationMap
from ..engine.instrumentation import EvaluationStats
from ..engine.seminaive import group_insert_closure, overlay_relations
from ..engine.strata import cached_evaluation_strata as _cached_strata
from ..engine.strata import group_is_recursive


def overestimate_deletions(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
    deltas: Mapping[str, Set[Row]],
    stats: EvaluationStats,
    cache: PlanCache,
) -> Dict[str, Set[Row]]:
    """Every derived tuple with a derivation through a deleted tuple.

    ``database``/``derived`` are the *pre-deletion* state; ``deltas`` the
    rows about to be removed.  Set semantics make this phase simple: any
    affected derivation uses at least one dying tuple, so overriding one
    occurrence at a time with the doomed delta — full old relations elsewhere
    — reaches the complete overestimate without subset enumeration.
    """
    stats.start_timer()
    relations = overlay_relations(database, derived)
    known = program.predicates()
    doomed: Dict[str, Set[Row]] = {p: set() for p in derived}
    external: Dict[str, Set[Row]] = {
        name: set(rows) for name, rows in deltas.items() if rows and name in known
    }
    for group in _cached_strata(program):
        group_set = set(group)
        frontier: Dict[str, Set[Row]] = {p: set() for p in group}
        for predicate in group:
            # base facts stored under the predicate's own name
            for row in external.get(predicate, ()):
                if row in derived[predicate] and row not in doomed[predicate]:
                    doomed[predicate].add(row)
                    frontier[predicate].add(row)
        rules = [rule for predicate in group for rule in program.rules_for(predicate)]
        changed = {name for name, rows in external.items() if rows and name not in group_set}
        for rule in rules:
            for index, atom in enumerate(rule.body):
                if atom.predicate not in changed:
                    continue
                plan = cache.get(rule, relations, first=index, stats=stats)
                overlay = Relation(
                    f"delta_{atom.predicate}", atom.arity, external[atom.predicate]
                )
                head = rule.head.predicate
                for row in plan.evaluate(relations, stats=stats, overrides={index: overlay}):
                    if row in derived[head] and row not in doomed[head]:
                        doomed[head].add(row)
                        frontier[head].add(row)
        if group_is_recursive(program, group):
            group_rules = [r for r in rules if any(p in group_set for p in r.body_predicates())]
            delta_plans = []
            for rule in group_rules:
                for index, atom in enumerate(rule.body):
                    if atom.predicate in group_set:
                        plan = cache.get(rule, relations, first=index, stats=stats)
                        delta_plans.append((atom.predicate, index, plan))
            while any(frontier[p] for p in group):
                stats.record_iteration()
                next_frontier: Dict[str, Set[Row]] = {p: set() for p in group}
                for delta_predicate, occurrence, plan in delta_plans:
                    rows = frontier[delta_predicate]
                    if not rows:
                        continue
                    overlay = Relation(
                        f"delta_{delta_predicate}", derived[delta_predicate].arity, rows
                    )
                    head = plan.rule.head.predicate
                    for row in plan.evaluate(relations, stats=stats, overrides={occurrence: overlay}):
                        if row in derived[head] and row not in doomed[head]:
                            doomed[head].add(row)
                            next_frontier[head].add(row)
                frontier = next_frontier
        for predicate in group:
            if doomed[predicate]:
                external[predicate] = doomed[predicate]
    stats.stop_timer()
    return {p: rows for p, rows in doomed.items() if rows}


def _head_probes(program: Program, predicate: str) -> List[Tuple[Rule, Tuple[Variable, ...]]]:
    """The rules that can derive ``predicate``, each with its head variables.

    Static per rule, so :func:`apply_deletions` asks once per predicate, not
    once per doomed row.
    """
    probes = []
    for rule in program.rules_for(predicate):
        head_vars = tuple(dict.fromkeys(arg for arg in rule.head.args if is_variable(arg)))
        # a head variable unreachable from the body never derives
        if set(head_vars) <= atoms_variables(rule.body):
            probes.append((rule, head_vars))
    return probes


def _derivable(
    probes: List[Tuple[Rule, Tuple[Variable, ...]]],
    row: Row,
    relations: RelationMap,
    stats: EvaluationStats,
    cache: PlanCache,
) -> bool:
    """``True`` when one of the ``probes`` rules still derives ``row``.

    Compiles each rule with its head variables bound, so the probe starts
    from the candidate's constants instead of enumerating the rule's full
    join (the same selection pushdown the unfolded evaluator uses).
    """
    for rule, head_vars in probes:
        bindings: Dict[Variable, object] = {}
        consistent = True
        for position, arg in enumerate(rule.head.args):
            if isinstance(arg, Constant):
                if arg.value != row[position]:
                    consistent = False
                    break
            else:
                if arg in bindings and bindings[arg] != row[position]:
                    consistent = False
                    break
                bindings[arg] = row[position]
        if not consistent:
            continue
        plan = cache.get(rule, relations, bound=head_vars, stats=stats)
        if plan.join(relations, stats, bindings=bindings):
            return True
    return False


def apply_deletions(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
    doomed: Mapping[str, Set[Row]],
    stats: EvaluationStats,
    cache: PlanCache,
) -> Dict[str, Set[Row]]:
    """Remove the overestimate, then rederive the survivors (post-mutation).

    ``database`` is the post-deletion state.  Returns the rows that stayed
    deleted per predicate.  Only overestimated tuples can become newly
    derivable (deletion is antitone everywhere else), so the rederivation
    seeds feed the standard insertion closure and nothing outside ``doomed``
    is ever touched.
    """
    stats.start_timer()
    for predicate, rows in doomed.items():
        removed = derived[predicate].discard_all(rows)
        stats.record_deleted(removed)
    base = {p: database.relation(p) for p in derived if database.has_relation(p)}
    relations = overlay_relations(database, derived)
    external: Dict[str, Set[Row]] = {}
    rederived_total = 0
    for group in _cached_strata(program):
        seeds: Dict[str, Set[Row]] = {p: set() for p in group}
        for predicate in group:
            base_relation = base.get(predicate)
            probes = _head_probes(program, predicate)
            for row in doomed.get(predicate, ()):
                if row in derived[predicate]:
                    continue
                if (base_relation is not None and row in base_relation) or _derivable(
                    probes, row, relations, stats, cache
                ):
                    derived[predicate].add(row)
                    seeds[predicate].add(row)
        inserted = group_insert_closure(
            program, group, relations, derived, seeds, external, stats, cache
        )
        for predicate in group:
            if inserted[predicate]:
                external[predicate] = inserted[predicate]
                rederived_total += len(inserted[predicate])
    if rederived_total:
        stats.record_rederived(rederived_total)
    stats.stop_timer()
    return {
        p: {row for row in rows if row not in derived[p]}
        for p, rows in doomed.items()
        if any(row not in derived[p] for row in rows)
    }
