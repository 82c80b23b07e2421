"""The reference executor: compiled plans on the step machine.

The step machine pushes a frontier of slot tuples through a plan one step at
a time, one ``Relation.probe`` and one ``record_lookup`` per frontier row and
step; the Figure 9 schema runs one such join per operator application.  The
generated kernels (:mod:`repro.engine.kernels`) are held to it answer for
answer and counter for counter.  :func:`step_machine` installs it for a scope
where the engine builds its runs; it memoizes nothing, so no run built by one
executor is ever served by the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..datalog.relation import Relation, Row, Value
from ..engine import kernels
from ..engine.compile import CompiledRule
from ..engine.instrumentation import EvaluationStats

__all__ = ["StepMachine", "step_machine"]


def _join(
    plan: CompiledRule,
    missing: Optional[int],
    rels: Tuple[Relation, ...],
    initial: Tuple[Value, ...],
    stats: Optional[EvaluationStats],
) -> List[Tuple[Value, ...]]:
    """Every satisfying assignment of ``plan`` as a slot tuple, stopping at step ``missing``."""
    frontier: List[Tuple[Value, ...]] = [initial]
    for index, step in enumerate(plan.steps):
        if index == missing:
            if stats is not None:
                stats.record_lookup(0, restricted=True)
            return []
        counted = stats is not None and index >= plan.inputs
        next_frontier: List[Tuple[Value, ...]] = []
        probe_columns = step.probe_columns
        key_ops = step.key_ops
        check_cols = step.check_cols
        store_cols = step.store_cols
        restricted = bool(probe_columns)
        single_key = key_ops[0] if len(key_ops) == 1 else None
        relation = rels[index]
        for current in frontier:
            if restricted:
                if single_key is not None:
                    is_const, value = single_key
                    key: object = value if is_const else current[value]
                else:
                    key = tuple(value if is_const else current[value] for is_const, value in key_ops)
                rows = relation.probe(probe_columns, key)
            else:
                rows = relation.rows()
            if counted:
                stats.record_lookup(len(rows), restricted=restricted)
            for row in rows:
                if check_cols:
                    ok = True
                    for position, earlier in check_cols:
                        if row[position] != row[earlier]:
                            ok = False
                            break
                    if not ok:
                        continue
                if store_cols:
                    next_frontier.append(current + tuple(row[position] for position, _slot in store_cols))
                else:
                    next_frontier.append(current)
        frontier = next_frontier
        if not frontier:
            return []
    return frontier


def _evaluate(
    plan: CompiledRule,
    missing: Optional[int],
    rels: Tuple[Relation, ...],
    initial: Tuple[Value, ...],
    stats: Optional[EvaluationStats],
) -> Set[Row]:
    """The distinct head tuples ``plan``'s assignments stand for."""
    head_ops = plan.head_ops
    return {
        tuple(value if is_const else assignment[value] for is_const, value in head_ops)
        for assignment in _join(plan, missing, rels, initial, stats)
    }


def _join_per_round(
    plan,
    missing: Tuple[str, ...],
    rels: List[Optional[Relation]],
    constants: Row,
    stats: EvaluationStats,
) -> Set[Row]:
    """Figure 9 driven from Python: one join per operator application."""
    relations: Dict[str, Relation] = {
        name: relation for name, relation in zip(plan.stored(), rels) if name not in missing
    }
    relations[plan.selection_name] = Relation.from_valid_rows(
        plan.selection_name, len(constants), {constants}
    )
    #: one relation, new rows every round: indexes a probing join registered follow
    carry_relation = relations[plan.carry_name] = Relation(plan.carry_name, plan.carry_arity)
    width = max(1, plan.carry_arity)
    operators = plan.operators()

    def run(op: CompiledRule) -> Set[Row]:
        if not op.producible:
            return set()
        resolved, stop = op.resolve(relations)
        return _evaluate(op, stop, resolved, (), stats)

    def apply(ops: Iterable[CompiledRule]) -> Set[Row]:
        return set().union(*[run(op) for op in ops])

    # 1-3) init carry, seen, ans from the selection.  Backward: the exit rules'
    # tuples are the first carry.  Forward: they are the depth-0 answers, and one
    # push through the body gives the (remembered + recursive-call arguments) carry.
    answers = apply(plan.exits)
    carry = apply(plan.init)
    known = plan.init_known
    #: carry rows reached so far, by which of their columns are determined
    seen: Dict[Tuple[bool, ...], Set[Row]] = {known: set(carry)}
    total = len(carry)
    stats.record_produced(total)
    stats.record_state(total, total * width)

    # 4-8) while carry not empty: carry := f(carry) − seen, one join per round.
    while carry:
        stats.record_iteration()
        step, known, _finals = operators[known]
        carry_relation.replace_rows(carry)
        reached = seen.setdefault(known, set())
        carry = run(step) - reached
        reached |= carry
        total += len(carry)
        stats.record_produced(len(carry))
        stats.record_state(total + len(carry), (total + len(carry)) * width)

    # 9) ans := g(seen).  Backward: re-attach the selection constants.
    # Forward: join the reachable call tuples with the exit rules.
    for known, rows in seen.items():
        carry_relation.replace_rows(rows)
        answers |= apply(operators[known][2])
    return answers


class StepMachine:
    """The reference executor, with :class:`repro.engine.kernels.Generated`'s interface."""

    #: the dispatch a profile records for a plan this executor ran
    dispatch = "interpreted"

    def kernel(self, plan: CompiledRule, project: bool, missing: Optional[int] = None) -> Callable:
        return partial(_evaluate if project else _join, plan, missing)

    def schema(self, plan, missing: Tuple[str, ...] = ()) -> Callable:
        return partial(_join_per_round, plan, missing)


@contextmanager
def step_machine(enabled: bool = True):
    """Run every plan and schema in the scope on the step machine (``enabled``) or
    on generated kernels (``False``); the previous executor comes back on exit."""
    previous = kernels.EXECUTOR
    kernels.EXECUTOR = StepMachine() if enabled else kernels.Generated()
    try:
        yield
    finally:
        kernels.EXECUTOR = previous
