"""DRed (delete-and-rederive) view maintenance for recursive programs.

Counting maintenance breaks on recursion: two tuples supporting each other
through a cycle keep positive counts after their last external derivation is
deleted.  DRed (Gupta–Mumick–Subrahmanian) stays exact by splitting deletion
into three phases:

1. **overestimate** — propagate the deleted base facts through every rule,
   marking every derived tuple that has *some* derivation using a deleted
   tuple.  This is the stratum closure the fixpoint and insertions run
   (:func:`repro.engine.seminaive.close_group`: same delta variants, same
   delta loop) under its own policy: a produced row is new when it is derived
   and not yet doomed, and it goes to the doomed set;
2. **remove** — discard the whole overestimate from the view;
3. **rederive** — probe every removed tuple of a stratum against the *same*
   pruned state for a surviving derivation (a bound-head compiled probe per
   candidate, plus the base relation when the predicate stores facts under
   its own name), then put the survivors back and let the insertion closure
   (:func:`repro.engine.seminaive.group_insert_closure`) reinstate what hangs
   off them — so the work does not depend on the order the rows are met in.

Insertions don't need any of this: the fixpoint is monotone, so a single
seeded closure (:func:`repro.engine.seminaive.propagate_insertions`) is exact.

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
from ..engine.seminaive import close_group, group_insert_closure, overlay_relations
from ..engine.strata import cached_evaluation_strata as _cached_strata


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

    def fresh(head: str, produced: Set[Row]) -> Set[Row]:
        produced &= derived[head].rows()
        produced -= doomed[head]
        return produced

    def absorb(predicate: str, rows: Set[Row]) -> None:
        doomed[predicate] |= rows

    for group in _cached_strata(program):
        # base facts stored under a group predicate's own name
        seeds = {p: fresh(p, set(external[p])) for p in group if p in external}
        for predicate, rows in seeds.items():
            absorb(predicate, rows)
        close_group(program, group, relations, seeds, external, (fresh, absorb), stats, cache)
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
        # probe first, re-add after: a survivor that hangs off another survivor
        # is the closure's to reinstate, whichever of the two is met first
        seeds: Dict[str, Set[Row]] = {p: set() for p in group}
        for predicate in group:
            base_relation = base.get(predicate)
            probes = _head_probes(program, predicate)
            for row in doomed.get(predicate, ()):
                if (base_relation is not None and row in base_relation) or _derivable(
                    probes, row, relations, stats, cache
                ):
                    seeds[predicate].add(row)
        for predicate in group:
            derived[predicate].union_update(seeds[predicate])
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
