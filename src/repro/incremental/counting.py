"""Counting-based view maintenance for nonrecursive programs.

For a nonrecursive (stratified, acyclic) program every derived tuple has a
finite set of *immediate derivations* — satisfying assignments of some rule
body, plus one derivation per base fact stored under the predicate's own
name.  Maintaining the number of those derivations alongside each tuple
makes deletion exact: a tuple disappears precisely when its count reaches
zero, with no rederivation pass (Gupta–Mumick–Subrahmanian counting, the
classical complement to DRed).  Recursive programs are outside this module's
scope — mutual support through a cycle keeps counts positive after the last
external derivation dies — and are maintained by :mod:`repro.incremental.dred`.

The per-update work is the multilinear delta expansion.  With disjoint
deltas (``new = old ⊎ Δ`` for insertion, ``old = new ⊎ Δ`` for deletion) a
rule body's assignment count over one side equals the sum, over every subset
``S`` of its delta-touched atom positions, of the join with ``Δ`` substituted
at ``S`` and the other side everywhere else.  The changed assignments are
exactly the terms with ``S ≠ ∅`` — each one a small, delta-first compiled
join — so maintenance never re-enumerates the unchanged derivations:

* **insertion** runs *before* the database mutates: positions outside ``S``
  read the old state (IDB updates are kept pending per stratum and applied at
  the end);
* **deletion** runs *after* the database mutates: positions outside ``S``
  read the new state (each stratum's dead tuples are removed before the next
  stratum is processed).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..datalog.database import Database
from ..datalog.errors import EvaluationError
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from ..engine.compile import CompiledRule, PlanCache, RelationMap
from ..engine.instrumentation import EvaluationStats
from ..engine.seminaive import overlay_relations
from ..engine.strata import program_strata


class CountingState:
    """Per-tuple immediate-derivation counts for every IDB predicate."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[Row, int]] = {}

    def count(self, predicate: str, row: Row) -> int:
        """The current derivation count of ``row`` (0 when underivable)."""
        return self.counts.get(predicate, {}).get(tuple(row), 0)


def _head_counts(
    plan: CompiledRule,
    relations: RelationMap,
    stats: EvaluationStats,
    overrides: Optional[Mapping[int, Relation]] = None,
) -> Dict[Row, int]:
    """Head tuples of one plan application with assignment multiplicities."""
    if not plan.producible:
        return {}
    head_ops = plan.head_ops
    result: Dict[Row, int] = {}
    for assignment in plan.join(relations, stats, overrides):
        row = tuple(value if is_const else assignment[value] for is_const, value in head_ops)
        result[row] = result.get(row, 0) + 1
    return result


def _delta_counts(
    rule: Rule,
    relations: RelationMap,
    deltas: Mapping[str, Relation],
    cache: PlanCache,
    stats: EvaluationStats,
) -> Dict[Row, int]:
    """Changed assignment counts of ``rule`` under the multilinear expansion.

    ``relations`` holds the unchanged side (old for insertion, new for
    deletion) and ``deltas`` the disjoint per-predicate delta relations; the
    result sums the subset terms with at least one delta position.
    """
    positions = [index for index, atom in enumerate(rule.body) if atom.predicate in deltas]
    total: Dict[Row, int] = {}
    for mask in range(1, 1 << len(positions)):
        subset = [positions[bit] for bit in range(len(positions)) if mask & (1 << bit)]
        overrides = {index: deltas[rule.body[index].predicate] for index in subset}
        plan = cache.get(rule, relations, first=subset[0], stats=stats)
        for row, count in _head_counts(plan, relations, stats, overrides).items():
            total[row] = total.get(row, 0) + count
    return total


def _relation_maps(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
) -> Tuple[Dict[str, Relation], Dict[str, Relation]]:
    """(join-time relations, base relations stored under IDB names)."""
    base = {
        p: database.relation(p)
        for p in program.idb_predicates()
        if database.has_relation(p)
    }
    return overlay_relations(database, derived), base


def initialize_counts(
    program: Program,
    database: Database,
    stats: EvaluationStats,
    cache: PlanCache,
) -> Tuple[Dict[str, Relation], CountingState]:
    """Evaluate a nonrecursive program bottom-up, recording derivation counts.

    Returns the derived relations (identical, tuple for tuple, to
    :func:`repro.engine.seminaive.seminaive_evaluate`) plus the counting
    state the maintenance functions below keep consistent.
    """
    stats.start_timer()
    derived: Dict[str, Relation] = {
        p: Relation(p, program.arity_of(p)) for p in program.idb_predicates()
    }
    relations, base = _relation_maps(program, database, derived)
    state = CountingState()
    for predicate in derived:
        state.counts[predicate] = {}
    for group, _rules, _base, recursive in program_strata(program):
        if recursive:
            raise EvaluationError(
                f"counting maintenance requires a nonrecursive program; "
                f"stratum {group} is recursive"
            )
        predicate = group[0]
        counts = state.counts[predicate]
        if predicate in base:
            for row in base[predicate]:
                counts[row] = counts.get(row, 0) + 1
        for rule in program.rules_for(predicate):
            plan = cache.get(rule, relations, stats=stats)
            for row, count in _head_counts(plan, relations, stats).items():
                counts[row] = counts.get(row, 0) + count
        derived[predicate].add_all(counts)
        stats.record_produced(len(counts))
    stats.stop_timer()
    return derived, state


def apply_insertions(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
    state: CountingState,
    deltas: Mapping[str, Set[Row]],
    stats: EvaluationStats,
    cache: PlanCache,
) -> Dict[str, Set[Row]]:
    """Fold base-fact insertions into counts and views (call *before* mutating).

    ``database``/``derived`` are the pre-insertion state and ``deltas`` the
    effective rows about to be added.  Count increments are applied stratum
    by stratum; view relations are only updated at the end, so every join
    term reads old state outside its delta positions.  Returns the rows that
    became newly derivable per predicate.
    """
    stats.start_timer()
    relations, _base = _relation_maps(program, database, derived)
    # Only EDB-name deltas propagate as given.  A base-fact change under an
    # IDB predicate's own name affects downstream strata only through the
    # predicate's *tuple-set* change (fresh rows), which is installed below
    # once its stratum is processed — seeding the raw rows here would
    # double-count derivations of tuples that were already derivable.
    idb = set(derived)
    live: Dict[str, Relation] = {}
    for name, rows in deltas.items():
        if rows and name in program.predicates() and name not in idb:
            live[name] = Relation(f"delta_{name}", program.arity_of(name), rows)
    pending: Dict[str, Set[Row]] = {}
    for group, _rules, _base, _recursive in program_strata(program):
        predicate = group[0]
        counts = state.counts[predicate]
        fresh: Set[Row] = set()
        for row in deltas.get(predicate, ()):
            previous = counts.get(row, 0)
            counts[row] = previous + 1
            if previous == 0:
                fresh.add(row)
        for rule in program.rules_for(predicate):
            for row, count in _delta_counts(rule, relations, live, cache, stats).items():
                previous = counts.get(row, 0)
                counts[row] = previous + count
                if previous == 0:
                    fresh.add(row)
        if fresh:
            pending[predicate] = fresh
            live[predicate] = Relation(f"delta_{predicate}", derived[predicate].arity, fresh)
    for predicate, rows in pending.items():
        derived[predicate].add_all(rows)
        stats.record_inserted(len(rows))
    stats.stop_timer()
    return pending


def apply_deletions(
    program: Program,
    database: Database,
    derived: Dict[str, Relation],
    state: CountingState,
    deltas: Mapping[str, Set[Row]],
    stats: EvaluationStats,
    cache: PlanCache,
) -> Dict[str, Set[Row]]:
    """Fold base-fact deletions into counts and views (call *after* mutating).

    ``database`` is the post-deletion state and ``deltas`` the effective rows
    just removed.  Each stratum's lost-assignment counts are computed against
    the new state (lower strata already pruned), counts are decremented, and
    tuples reaching zero are removed from the view and become the next
    stratum's delta.  Returns the rows removed per predicate.
    """
    stats.start_timer()
    relations, _base = _relation_maps(program, database, derived)
    # mirror of apply_insertions: IDB-name deltas only propagate through the
    # tuples that actually die (installed per stratum below)
    idb = set(derived)
    live: Dict[str, Relation] = {}
    for name, rows in deltas.items():
        if rows and name in program.predicates() and name not in idb:
            live[name] = Relation(f"delta_{name}", program.arity_of(name), rows)
    removed_total: Dict[str, Set[Row]] = {}
    for group, _rules, _base, _recursive in program_strata(program):
        predicate = group[0]
        counts = state.counts[predicate]
        lost: Dict[Row, int] = {}
        for row in deltas.get(predicate, ()):
            lost[row] = lost.get(row, 0) + 1
        for rule in program.rules_for(predicate):
            for row, count in _delta_counts(rule, relations, live, cache, stats).items():
                lost[row] = lost.get(row, 0) + count
        dead: List[Row] = []
        for row, count in lost.items():
            remaining = counts.get(row, 0) - count
            if remaining < 0:
                raise EvaluationError(
                    f"counting maintenance went inconsistent: {predicate}{row} "
                    f"lost {count} derivations but only had {counts.get(row, 0)}"
                )
            if remaining == 0:
                counts.pop(row, None)
                dead.append(row)
            else:
                counts[row] = remaining
        if dead:
            derived[predicate].discard_all(dead)
            stats.record_deleted(len(dead))
            removed_total[predicate] = set(dead)
            live[predicate] = Relation(f"delta_{predicate}", derived[predicate].arity, dead)
    stats.stop_timer()
    return removed_total
