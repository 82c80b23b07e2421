"""Update-sequence differential fuzzing: views must equal the oracle.

The incremental layer's tier-1 foothold: 28 deterministic seeds spanning
every generator family replay randomized insert/delete scripts through a
``repro.Session`` and assert, after *every* step, that the maintained view is
tuple-for-tuple identical to ``repro.testing.oracle.fixpoint`` over the
current EDB — deletions included, so DRed's over-delete/rederive cycle and
counting's exact decrements are both exercised against a truth that shares no
strata, plans or delta loop with them.  Any failure names its seed, so it
reproduces with ``generate_scenario("updates", seed)``.

Two more families ride along: the per-seed maintenance counters of every
single-relation delete, pinned (they must not move with the order rows are
met in, the hash seed, or the executor), and drained service batches that
delete and insert on several relations at once, checked the same way.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import Database, DatalogService, FlushPolicy, Program, Session, seminaive_evaluate
from repro.engine import strata
from repro.testing import generate_scenario, run_scenario
from repro.testing.reference import step_machine
from repro.testing.scenario import KINDS

SEED_COUNT = 28  # 4 full passes over the 7 generator families


def update_scenarios():
    return [generate_scenario("updates", seed) for seed in range(SEED_COUNT)]


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_view_matches_recompute_after_every_step(seed):
    report = run_scenario(generate_scenario("updates", seed))
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)


@pytest.mark.parametrize("kind", KINDS)
def test_generation_is_deterministic(kind):
    first, second = generate_scenario(kind, 11), generate_scenario(kind, 11)
    assert first.base.family == second.base.family
    assert replace(first, base=None) == replace(second, base=None)
    assert first.expected == second.expected


def test_batch_exercises_both_strategies_and_both_operations():
    """The harness must cover what it claims: counting AND DRed, inserts AND deletes."""
    cases = update_scenarios()
    operations = {step.op for case in cases for step in case.steps}
    assert operations == {"insert", "delete"}

    reports = [run_scenario(case) for case in cases]
    assert all(report.ok for report in reports)
    strategies = [report.strategy for report in reports]
    assert strategies.count("counting") >= 3  # the bounded family unfolds, then counts
    assert strategies.count("dred") >= SEED_COUNT // 2

    # every check actually ran: initial state plus one per executed step
    for report in reports:
        assert report.checks == len(report.scenario.steps) + 1


def test_deletions_touch_recursive_views():
    """At least one DRed case must delete from a recursive view's EDB.

    Deleting under recursion is the hard case (mutual support through
    cycles); the batch would be toothless if deletions only ever landed on
    counting views.
    """
    reports = [run_scenario(case) for case in update_scenarios()]
    dred_deletes = [
        report
        for report in reports
        if report.strategy == "dred"
        and any(step.op == "delete" for step in report.scenario.steps)
    ]
    assert len(dred_deletes) >= 5


def test_the_oracle_sees_a_defect_the_engine_shares(monkeypatch):
    """Strata run in reverse break the views and a semi-naive recompute alike;
    only a truth that has no strata tells them apart.  (Strata are kept on the
    program, so each case runs on a cold twin of it.)"""
    evaluation_strata = strata.evaluation_strata
    monkeypatch.setattr(strata, "evaluation_strata", lambda program: evaluation_strata(program)[::-1])
    for kind, seed in [("updates", 3), ("updates", 10), ("updates", 17), ("updates", 24), ("concurrent", 3)]:
        scenario = generate_scenario(kind, seed)
        cold = replace(scenario.base, program=Program(scenario.base.program.rules))
        assert not run_scenario(replace(scenario, base=cold)).ok, (kind, seed)


#: per update seed with a delete step: the view's strategy, then the summed
#: ``tuples_examined``, ``lookups``, ``unrestricted_lookups``,
#: ``tuples_rederived`` and ``iterations`` of its ``Session.delete`` calls.
#: Recorded with one probe per doomed row and rule under PYTHONHASHSEED 0 and
#: 1 (identical); the set-at-a-time rederive must count exactly the same.
DELETE_COUNTERS = {
    0: ("dred", 391, 424, 24, 33, 21),
    1: ("dred", 159, 213, 17, 2, 12),
    2: ("dred", 32, 48, 10, 0, 6),
    3: ("dred", 21, 36, 16, 0, 3),
    4: ("dred", 23, 37, 8, 0, 3),
    5: ("dred", 9, 14, 4, 0, 1),
    6: ("counting", 13, 11, 4, 0, 0),
    7: ("dred", 144, 194, 28, 10, 24),
    8: ("dred", 376, 421, 44, 25, 38),
    9: ("dred", 711, 598, 21, 83, 19),
    10: ("dred", 6, 10, 7, 0, 0),
    11: ("dred", 112, 139, 12, 0, 7),
    12: ("dred", 393, 447, 13, 19, 8),
    13: ("counting", 10, 11, 6, 0, 0),
    14: ("dred", 64, 81, 11, 5, 10),
    15: ("dred", 90, 96, 15, 7, 12),
    16: ("dred", 413, 409, 17, 40, 15),
    17: ("dred", 204, 240, 28, 6, 12),
    18: ("dred", 9, 13, 3, 0, 1),
    19: ("dred", 313, 320, 18, 36, 17),
    20: ("counting", 17, 13, 4, 0, 0),
    21: ("dred", 77, 110, 13, 0, 10),
    22: ("dred", 60, 89, 14, 1, 8),
    23: ("dred", 437, 456, 39, 44, 34),
    25: ("dred", 25, 32, 5, 0, 2),
    26: ("dred", 49, 55, 7, 1, 4),
    27: ("counting", 11, 12, 4, 0, 0),
}

COUNTERS = ("tuples_examined", "lookups", "unrestricted_lookups", "tuples_rederived", "iterations")


@pytest.mark.parametrize("kernels", [True, False], ids=["kernel", "interpreted"])
def test_delete_counters_are_pinned(kernels):
    table = {}
    with step_machine(not kernels):
        for case in update_scenarios():
            session = Session(case.base.program, case.base.database.copy())
            totals = dict.fromkeys(COUNTERS, 0)
            deletes = 0
            for step in case.steps:
                getattr(session, step.op)(step.relation, list(step.rows))
                if step.op == "delete":
                    deletes += 1
                    for counter in COUNTERS:
                        totals[counter] += getattr(session.last_stats, counter)
            if deletes:
                table[case.seed] = (session.view.strategy, *totals.values())
    assert table == DELETE_COUNTERS


# ----------------------------------------------------------------------
# drained batches over several relations
# ----------------------------------------------------------------------
BATCH_PROGRAMS = {
    # t is recursive: DRed
    "dred": """
        t(X, Y) :- a(X, Z), t(Z, Y).
        t(X, Y) :- b(X, Y).
        s(X, Y) :- t(X, Z), c(Z, Y).
    """,
    # t is bounded (the swap family): view-unfolding rewrites it, then counting
    "counting": """
        t(X, Y) :- a(X, Y), t(Y, X).
        t(X, Y) :- b(X, Y).
        s(X, Y) :- t(X, Z), c(Z, Y).
    """,
}
BATCH_SEEDS = 12


def _batch_script(seed):
    """Initial ``a``/``b``/``c`` rows and six batches of ``(op, relation, row)`` tickets.

    Every batch ends by deleting a ``b`` row ``(x, y)`` and inserting an ``a``
    row ``(w, x)``: the insert derives through ``t(x, y)`` while the delete
    dooms it, so the two sides of the round overlap.
    """
    rng = random.Random(seed)
    domain = range(6)

    def pair():
        return (rng.choice(domain), rng.choice(domain))

    state = {name: {pair() for _ in range(8)} for name in "abc"}
    initial = {name: set(rows) for name, rows in state.items()}
    batches = []
    for _ in range(6):
        batch = []
        for name in "abc":
            present = sorted(state[name])
            doomed = rng.sample(present, min(len(present), rng.randrange(3)))
            batch += [("delete", name, row) for row in doomed]
            batch += [("insert", name, pair()) for _ in range(rng.randrange(3))]
        rng.shuffle(batch)
        if state["b"]:
            x, y = rng.choice(sorted(state["b"]))
            batch += [("delete", "b", (x, y)), ("insert", "a", (rng.choice(domain), x))]
        for op, name, row in batch:
            (state[name].add if op == "insert" else state[name].discard)(row)
        batches.append((batch, {name: set(rows) for name, rows in state.items()}))
    return initial, batches


@pytest.mark.parametrize("seed", range(BATCH_SEEDS))
@pytest.mark.parametrize("strategy", sorted(BATCH_PROGRAMS))
def test_a_drained_batch_over_several_relations_is_one_exact_round(strategy, seed):
    initial, batches = _batch_script(seed)
    database = Database()
    for name, rows in initial.items():
        database.declare(name, 2).add_all(rows)
    manual = FlushPolicy(max_batch=1_000_000, max_delay_seconds=3600.0)
    with DatalogService(BATCH_PROGRAMS[strategy], database, flush_policy=manual) as service:
        session = service.session
        assert session.view.strategy == strategy
        previous = initial
        for number, (batch, expected) in enumerate(batches):
            rounds = service.stats.maintenance_rounds
            for op, name, row in batch:
                getattr(service, op)(name, row)
            service.barrier(timeout=10)
            label = f"seed {seed}, batch {number}"
            assert service.stats.maintenance_rounds - rounds == int(expected != previous), label
            previous = expected
            with session.lock:
                assert {name: session.facts(name) for name in "abc"} == expected, label
                reference = seminaive_evaluate(session.program, session.database)
                assert set(session.view.derived) == set(reference), label
                for predicate, relation in reference.items():
                    assert session.view.derived[predicate].rows() == relation.rows(), (label, predicate)
            assert service.query("s(X, Y)?").answers == reference["s"].rows(), label
