"""Update-sequence differential testing: incremental views vs. recomputation.

Extends the seeded generator (:mod:`repro.testing.generate`) with a *time*
dimension: each case is a base program/database/query triple plus a
deterministic script of randomized EDB insertions and deletions.  The runner
plays the script through a :class:`repro.incremental.Session` and, after
**every** step, asserts that the maintained view is tuple-for-tuple identical
to a from-scratch semi-naive evaluation of the original program over the
current database — the incremental layer's equivalent of the cross-engine
agreement the plain differential harness checks.

Deletions are drawn from the relation's live contents (tracked on a shadow
copy during generation), insertions mix existing domain values with fresh
ones, and the base families span both maintenance strategies: recursive
programs exercise DRed, bounded programs exercise unfolding + counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..datalog.relation import Row
from ..engine.seminaive import seminaive_evaluate
from ..incremental.session import Session
from .generate import DifferentialCase, generate_case
from .reference import step_machine


@dataclass(frozen=True)
class UpdateStep:
    """One scripted mutation: insert or delete ``rows`` in relation ``relation``."""

    op: str  # "insert" | "delete"
    relation: str
    rows: Tuple[Row, ...]

    def __str__(self) -> str:
        return f"{self.op} {self.relation} {list(self.rows)}"


@dataclass(frozen=True)
class UpdateSequenceCase:
    """A base differential case plus a deterministic update script."""

    seed: int
    base: DifferentialCase
    steps: Tuple[UpdateStep, ...]

    @property
    def name(self) -> str:
        return f"updates/{self.base.family}[seed={self.seed}]"


@dataclass
class UpdateSequenceReport:
    """Outcome of replaying one update script against the maintained view."""

    case: UpdateSequenceCase
    strategy: str = "unregistered"
    #: number of checkpoints that ran (initial state + one per executed step)
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return (
            f"{self.case.name} ({self.strategy}, {len(self.case.steps)} steps, "
            f"{self.checks} checks): {status}"
        )


def generate_update_sequence(seed: int, step_count: "int | None" = None) -> UpdateSequenceCase:
    """Deterministically generate one update-sequence case from ``seed``."""
    base = generate_case(seed)
    rng = random.Random(1_000_003 * seed + 0x5EED)
    shadow = base.database.copy()
    names = sorted(
        name for name in base.program.edb_predicates() if shadow.has_relation(name)
    )
    steps: List[UpdateStep] = []
    count = step_count if step_count is not None else rng.randrange(6, 12)
    fresh_counter = 0
    for _ in range(count):
        name = rng.choice(names)
        relation = shadow.relation(name)
        existing = sorted(relation.rows(), key=repr)
        op = "delete" if existing and rng.random() < 0.45 else "insert"
        if op == "insert":
            domain = sorted(shadow.active_domain(), key=repr) or [0]
            rows = []
            for _ in range(rng.randrange(1, 4)):
                row = []
                for _column in range(relation.arity):
                    if rng.random() < 0.15:
                        fresh_counter += 1
                        row.append(f"u{fresh_counter}")
                    else:
                        row.append(rng.choice(domain))
                rows.append(tuple(row))
            for row in rows:
                shadow.add_fact(name, row)
        else:
            rows = rng.sample(existing, rng.randrange(1, min(3, len(existing)) + 1))
            for row in rows:
                shadow.remove_fact(name, row)
        steps.append(UpdateStep(op, name, tuple(dict.fromkeys(rows))))
    return UpdateSequenceCase(seed=seed, base=base, steps=tuple(steps))


def generate_update_sequences(count: int, base_seed: int = 0) -> List[UpdateSequenceCase]:
    """``count`` deterministic update-sequence cases with consecutive seeds."""
    return [generate_update_sequence(base_seed + offset) for offset in range(count)]


def _check_state(
    session: Session,
    case: UpdateSequenceCase,
    label: str,
    report: UpdateSequenceReport,
) -> None:
    """Assert the view equals from-scratch evaluation of the *original* program."""
    report.checks += 1
    reference = seminaive_evaluate(case.base.program, session.database)
    view = session.view.derived
    for predicate in sorted(set(reference) | set(view)):
        reference_rows = reference[predicate].rows() if predicate in reference else set()
        view_rows = view[predicate].rows() if predicate in view else set()
        if view_rows != reference_rows:
            view_only = sorted(view_rows - reference_rows, key=repr)[:5]
            reference_only = sorted(reference_rows - view_rows, key=repr)[:5]
            report.mismatches.append(
                f"{label}: {predicate}: view={len(view_rows)} vs recompute={len(reference_rows)} "
                f"tuples (view-only sample {view_only}, recompute-only sample {reference_only})"
            )
    query = case.base.query
    expected = (
        query.select(reference[query.predicate].rows())
        if query.predicate in reference
        else set()
    )
    routed = session.query(query)
    if routed.answers != expected:
        report.mismatches.append(
            f"{label}: query {query}: view route gave {len(routed.answers)} answers vs "
            f"recompute {len(expected)}"
        )


def run_update_sequence(case: UpdateSequenceCase) -> UpdateSequenceReport:
    """Replay ``case`` through a Session, checking the view after every step.

    After the whole stream, the final view state (maintained through
    generated kernels) is additionally checked against a recomputation with
    the engine runtime pinned to the interpreted step machine — the update
    families' leg of the interpreted == kernel assertion.
    """
    report = UpdateSequenceReport(case)
    session = Session(case.base.program, case.base.database.copy())
    report.strategy = session.view.strategy
    _check_state(session, case, "initial", report)
    for index, step in enumerate(case.steps):
        if report.mismatches:
            break  # keep the first divergence reproducible, skip cascading noise
        if step.op == "insert":
            session.insert(step.relation, list(step.rows))
        else:
            session.delete(step.relation, list(step.rows))
        _check_state(session, case, f"step {index} ({step})", report)
    if not report.mismatches:
        with step_machine():
            interpreted = seminaive_evaluate(case.base.program, session.database)
        view = session.view.derived
        for predicate in sorted(set(interpreted) | set(view)):
            reference_rows = interpreted[predicate].rows() if predicate in interpreted else set()
            view_rows = view[predicate].rows() if predicate in view else set()
            if view_rows != reference_rows:
                report.mismatches.append(
                    f"final interpreted cross-check: {predicate}: view={len(view_rows)} vs "
                    f"interpreted recompute={len(reference_rows)} tuples"
                )
    return report


def run_update_batch(cases) -> Tuple[List[UpdateSequenceReport], Dict[str, int]]:
    """Run many cases; returns reports plus per-strategy case counts."""
    reports = [run_update_sequence(case) for case in cases]
    strategies: Dict[str, int] = {}
    for report in reports:
        strategies[report.strategy] = strategies.get(report.strategy, 0) + 1
    return reports, strategies
