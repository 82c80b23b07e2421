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
from .compile import compile_program_rules
from .instrumentation import EvaluationStats
from .seminaive import seed_derived
from .strata import evaluation_strata, group_is_recursive


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

    for group in evaluation_strata(program):
        rules = [rule for predicate in group for rule in program.rules_for(predicate)]
        # Plans are compiled once per stratum and reused by every iteration.
        plans = compile_program_rules(rules, relations)
        stats.record_plans_compiled(len(plans))
        recursive_group = group_is_recursive(program, group)
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
            if not changed or not recursive_group:
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
