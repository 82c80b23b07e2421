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
3. **rederive** — find which removed tuples of a stratum still have a
   derivation in the *same* pruned state: one compiled join per rule,
   ``head :- <predicate>.rederive(head args), body``, whose input is the
   removed rows no base fact and no earlier rule has already rederived (the
   set-at-a-time form of a bound-head probe per row, as the Figure 9 schema
   runs ``carry := f(carry)``); then put the survivors back and let the
   insertion closure (:func:`repro.engine.seminaive.group_insert_closure`)
   reinstate what hangs off them — so the work does not depend on the order
   the rows are met in.

The view's :class:`~repro.engine.compile.PlanCache` keeps the closures and each
predicate's rederive joins prepared; the removal is one bulk ``discard_all``.

Insertions don't need any of this: the fixpoint is monotone, so a single
seeded closure (:func:`repro.engine.seminaive.propagate_insertions`) is exact.

The overestimate runs *before* the database mutates (it must see the old
state to find derivations through the dying tuples); removal and
rederivation run *after* (they must not resurrect anything through them).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..datalog.atoms import Atom, atoms_variables
from ..datalog.database import Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant
from ..engine.compile import PlanCache, prepare
from ..engine.instrumentation import EvaluationStats
from ..engine.seminaive import close_group, group_insert_closure, overlay_relations
from ..engine.strata import program_strata


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

    for group, _rules, _base, _recursive in program_strata(program):
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


def _rederive_joins(program: Program, predicate: str) -> Tuple[Set[str], Tuple[Relation, List[list]]]:
    """``head :- <predicate>.rederive(head args), body`` for each rule that can derive ``predicate``.

    Returns the relation names the joins read, the candidate relation and
    ``[rule, checks, run]`` per join.  The candidate atom is the join's one
    input: it binds the head variables from the doomed rows, as a bound-head
    probe would, and its name is one no program can spell.  The checks are
    what a row must pass to match the rule's head (``(position, True,
    constant)`` or ``(position, False, earlier position)`` for a repeated
    variable); the run is prepared when first needed.  A rule with a head
    variable its body never binds derives nothing, so it gets no join: the
    candidate atom would bind that variable and "derive" every candidate.
    """
    candidate = f"{predicate}.rederive"
    joins, reads = [], set()
    for rule in program.rules_for(predicate):
        head = rule.head
        if not head.variable_set() <= atoms_variables(rule.body):
            continue
        checks, first = [], {}
        for position, arg in enumerate(head.args):
            if isinstance(arg, Constant):
                checks.append((position, True, arg.value))
            elif arg in first:
                checks.append((position, False, first[arg]))
            else:
                first[arg] = position
        joins.append([Rule(head, (Atom(candidate, head.args), *rule.body)), tuple(checks), None])
        reads.update(rule.body_predicates())
    return reads, (Relation(candidate, program.arity_of(predicate)), joins)


def _rederive(
    program: Program,
    predicate: str,
    doomed: Set[Row],
    base: Optional[Relation],
    relations: Dict[str, Relation],
    stats: EvaluationStats,
    cache: PlanCache,
) -> Set[Row]:
    """The ``doomed`` rows of ``predicate`` that still have a derivation.

    A row stored as a base fact survives without a probe.  Then each rule runs
    one join over the rows no earlier rule has rederived, so a row meets the
    same stored probes it would meet probed alone, and every counter is the
    same whatever order the rows are in.  The joins and their candidate
    relation are kept in ``cache`` for the view's life; a rule whose head no
    pending row matches is skipped before its plan is looked up, so each plan
    compiles at the moment, and against the relation sizes, a probe per row
    would compile it.
    """
    survivors = base.rows().intersection(doomed) if base is not None else set()
    pending, joins = cache._keep((program, predicate), relations, partial(_rederive_joins, program, predicate))
    pending.replace_rows(doomed - survivors)
    for join in joins:
        rule, checks, run = join
        if pending.is_empty():
            break
        if checks and not any(
            all(row[at] == (value if constant else row[value]) for at, constant, value in checks)
            for row in pending
        ):
            continue
        if run is None:
            plan = cache.get(rule, relations, inputs=1, stats=stats)
            run = join[2] = prepare((plan,), relations, {plan: {0: pending}})[plan]
        found = run((), stats)
        if found:
            survivors |= found
            pending.replace_rows(pending.rows() - found)
    return survivors


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
    for group, _rules, _base, _recursive in program_strata(program):
        # probe first, re-add after: a survivor that hangs off another survivor
        # is the closure's to reinstate, whichever of the two is met first
        seeds: Dict[str, Set[Row]] = {
            p: _rederive(program, p, doomed[p], base.get(p), relations, stats, cache)
            if doomed.get(p)
            else set()
            for p in group
        }
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
    return {p: gone for p, rows in doomed.items() if (gone := rows - derived[p].rows())}
