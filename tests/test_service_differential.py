"""Concurrent differential fuzzing: every served answer matches its epoch.

The serving layer's tier-1 foothold: seeded reader/writer/barrier thread
schedules (``generate_scenario("concurrent", seed)``) drive a
``DatalogService`` over every generator family and assert, per answered
query, tuple-identity with the naive oracle over the exact epoch the reader
observed — plus monotone epochs per reader, a deterministic final state equal
to sequential replay, and agreement with a single-threaded ``Session``.  The
schedules themselves are nondeterministic (that is the point); the checked
property is schedule-independent, and any failure names its seed.
"""

from __future__ import annotations

import pytest

from repro import DatalogService, Session, answer
from repro.engine.query import SelectionQuery
from repro.testing import FAMILIES, generate_case, generate_cases, generate_scenario, run_scenario
from repro.testing.generate import generate_labelled_case

SEED_COUNT = 14  # two full passes over the 7 generator families


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_every_answer_matches_its_observed_epoch(seed):
    report = run_scenario(generate_scenario("concurrent", seed))
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)
    # the harness must have verified real traffic against real epochs
    assert report.queries_checked > 0
    assert report.epochs_observed >= 1


def test_batch_exercises_coalescing_and_both_strategies():
    cases = [generate_scenario("concurrent", seed) for seed in range(SEED_COUNT)]
    reports = [run_scenario(case) for case in cases]
    assert all(report.ok for report in reports), "\n".join(
        report.summary() for report in reports if not report.ok
    )
    total_writes = sum(report.stats.writes_applied for report in reports)
    total_flushes = sum(report.stats.flushes for report in reports)
    total_rounds = sum(report.stats.maintenance_rounds for report in reports)
    # the write queue must have batched concurrent writers somewhere: strictly
    # fewer flushes AND strictly fewer maintenance rounds than raw writes
    assert 0 < total_flushes < total_writes
    assert total_rounds < total_writes
    # readers must actually have shared cached answers across the batch
    assert sum(report.stats.cache_hits for report in reports) > 0
    # both maintenance strategies served concurrent traffic
    strategies = {case.base.family for case in cases}
    assert "bounded" in strategies  # unfolds -> counting maintenance
    assert "cyclic" in strategies  # stays recursive -> DRed maintenance


# ----------------------------------------------------------------------
# a served query is a lookup, and the lookup is the answer
# ----------------------------------------------------------------------
#: the engine differential's seeds: the base seeds, the bounded extras (whose
#: views are unfolded programs) and the labelled arity-3 family
DIFFERENTIAL_SEEDS = 84
BOUNDED_EXTRA_SEEDS = [
    seed
    for seed in range(DIFFERENTIAL_SEEDS, DIFFERENTIAL_SEEDS + 20 * len(FAMILIES))
    if seed % len(FAMILIES) == FAMILIES.index("bounded")
][:16]
LABELLED_SEEDS = range(DIFFERENTIAL_SEEDS, DIFFERENTIAL_SEEDS + 16)


def every_selection(case):
    """Every predicate of the case's program plus one it does not know, each
    unbound and with its first column bound to a constant of the database."""
    constant = min(case.database.active_domain(), key=repr)
    arities = {name: case.program.arity_of(name) for name in case.program.predicates()}
    arities["zz_unknown"] = 2
    for name, arity in sorted(arities.items()):
        yield SelectionQuery.of(name, arity, {})
        if arity:
            yield SelectionQuery.of(name, arity, {0: constant})


def test_served_answers_are_the_ladders_on_every_predicate():
    """Session and DatalogService answer every selection by lookup, and that
    lookup is plain ``repro.answer`` on every predicate: IDB, stored EDB and
    unknown alike."""
    cases = (
        generate_cases(DIFFERENTIAL_SEEDS)
        + [generate_case(seed) for seed in BOUNDED_EXTRA_SEEDS]
        + [generate_labelled_case(seed) for seed in LABELLED_SEEDS]
    )
    checked = 0
    for case in cases:
        expected = {
            selection: answer(case.program, case.database, selection).answers
            for selection in every_selection(case)
        }
        session = Session(case.program, case.database.copy())
        with DatalogService(case.program, case.database.copy(), readers=1) as service:
            for selection, answers in expected.items():
                assert session.query(selection).answers == answers, (case.name, str(selection))
                assert service.query(selection).answers == answers, (case.name, str(selection))
                checked += 1
    assert checked > 1000
