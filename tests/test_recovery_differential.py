"""Crash/restore differential fuzzing: recovery lands on an adjacent epoch.

The durability layer's tier-1 foothold: seeded kill/restore schedules
(``generate_scenario("crash", seed)``) drive a durable ``DatalogService`` over every
generator family, kill the store at a seeded WAL-append ordinal (before the
append, after it, or tearing the appended frame mid-write), and assert the
recovered service reproduces **exactly**
the adjacent epoch's state — tuple-identical EDB against a shadow replay,
tuple-identical views against the naive oracle — never a
torn in-between.  Every schedule also proves WAL replay idempotent (a double
replay changes nothing), continues the mutation script on the recovered
service, and recovers a second time to the same final state.  Any failure
names its seed.
"""

from __future__ import annotations

import pytest

from repro.testing import generate_scenario, run_scenario

SEED_COUNT = 24


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_recovery_reproduces_the_adjacent_epoch(seed, tmp_path):
    report = run_scenario(generate_scenario("crash", seed), tmp_path)
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)
    assert report.checks >= 4  # recovery, idempotence, continuation, reopen


def test_batch_covers_every_crash_window_and_compaction():
    cases = [generate_scenario("crash", seed) for seed in range(SEED_COUNT)]
    kinds = {case.crash_kind for case in cases}
    # "torn" schedules recover past a cut frame and then *continue* — the
    # final recovery replays acknowledged records on both sides of the tear
    assert kinds == {"before", "after", "torn"}
    # schedules must include aggressive compaction (snapshot per record) and
    # effectively-disabled compaction (pure WAL replay) so recovery is
    # exercised from both short and long log tails
    intervals = {case.snapshot_interval for case in cases}
    assert 1 in intervals
    assert max(intervals) >= 10_000
    families = {case.base.family for case in cases}
    assert "bounded" in families  # counting maintenance rebuilds
    assert "cyclic" in families  # DRed maintenance rebuilds
