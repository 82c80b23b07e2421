"""Naive bottom-up fixpoint evaluation.

The simplest complete evaluation strategy: repeatedly apply every rule to the
whole current database until nothing new is derived.  It exists as the
semantic reference point — every other strategy (semi-naive, magic sets,
counting, the one-sided schema) is tested against it — and as the slowest
baseline in the benchmark sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..datalog.database import Database
from ..datalog.relation import Relation
from ..datalog.rules import Program
from .compile import compiled
from .instrumentation import EvaluationStats
from .seminaive import seed_derived
from .strata import program_strata


def naive_evaluate(
    program: Program,
    database: Database,
    stats: Optional[EvaluationStats] = None,
) -> Dict[str, Relation]:
    """Compute the minimal model's IDB relations by naive iteration.

    Returns a map from IDB predicate name to its derived relation.  The input
    database is not modified.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()

    # IDB relations shadow same-named EDB relations during evaluation, but
    # pre-existing tuples (if any) are kept as seed facts.
    relations, derived = seed_derived(program, database)

    get = compiled(program).plan
    for group, rules, _base, recursive_rules in program_strata(program):
        # Plans are picked once per stratum, kept per join order, and reused by every iteration.
        plans = [get(rule, relations, stats=stats) for rule in rules]
        while True:
            stats.record_iteration()
            changed = False
            for plan in plans:
                target = derived[plan.rule.head.predicate]
                fresh_rows = plan.evaluate(relations, stats=stats) - target.rows()
                if fresh_rows:
                    target.union_update(fresh_rows)
                    changed = True
                    stats.record_produced(len(fresh_rows))
            stats.record_state(
                sum(len(derived[p]) for p in group),
                sum(len(derived[p]) * derived[p].arity for p in group),
            )
            if not changed or not recursive_rules:
                break

    stats.stop_timer()
    return derived


def naive_query(
    program: Program,
    database: Database,
    predicate: str,
    bindings: Optional[Dict[int, object]] = None,
    stats: Optional[EvaluationStats] = None,
) -> Tuple[set, EvaluationStats]:
    """Answer a ``column = constant`` selection by full naive evaluation + selection.

    ``bindings`` maps 0-based column numbers of ``predicate`` to constants.
    Returns ``(answer tuples, stats)``.
    """
    stats = stats if stats is not None else EvaluationStats()
    derived = naive_evaluate(program, database, stats)
    if predicate not in derived:
        return set(), stats
    relation = derived[predicate]
    bindings = bindings or {}
    answers = {row for row in relation if all(row[c] == v for c, v in bindings.items())}
    return answers, stats
