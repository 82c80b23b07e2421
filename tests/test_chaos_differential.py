"""Chaos differential fuzzing: graceful degradation under injected faults.

The robustness layer's tier-1 foothold: seeded fault schedules
(``generate_scenario("chaos", seed)``) drive a durable ``DatalogService`` over the
update-sequence families while the disk fails, tears frames, stalls, or
refuses fsync at seeded injection-site ordinals.  A writer retries each step
until acknowledged; readers issue seeded queries (some with impossible
deadlines) throughout.  Every case asserts: no acknowledged write is lost,
every answered query is tuple-identical to the naive oracle over its observed
epoch snapshot, the service returns to HEALTHY (verified on the
object *and* through the exported health-state gauge), timeouts and refusals
fail crisply (no hangs), and a post-fault close/reopen recovery reproduces
the final state exactly.  Any failure names its seed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.testing import generate_scenario, run_scenario
from repro.testing.scenario import FAULT_KINDS

SEED_COUNT = 24


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_service_degrades_gracefully_and_heals(seed, tmp_path):
    report = run_scenario(generate_scenario("chaos", seed), tmp_path)
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)
    assert report.final_health == "healthy"
    # the recovery shadow check ran and landed on the exact final epoch
    assert report.recovered_epoch == len(report.scenario.steps)


def test_batch_covers_every_site_and_fault_kind(tmp_path):
    """Across the seed range, every injection site and action kind must fire.

    Scheduling a fault is not exercising it — a window past the run's last
    append never fires — so coverage is asserted over what actually fired.
    A slightly wider range than the per-seed family keeps this robust to
    which windows land.
    """
    sites: Counter = Counter()
    kinds: Counter = Counter()
    families = set()
    writer_retries = 0
    timeouts = 0
    for seed in range(32):
        case = generate_scenario("chaos", seed)
        families.add(case.base.family)
        scratch = tmp_path / f"seed-{seed}"
        scratch.mkdir()
        report = run_scenario(case, scratch)
        assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)
        writer_retries += report.writer_retries
        timeouts += report.timeouts_observed
        for site, _ordinal, kind in report.faults_fired:
            sites[site] += 1
            kinds[kind] += 1
    assert set(sites) == set(FAULT_KINDS), f"sites never exercised: {set(FAULT_KINDS) - set(sites)}"
    assert set(kinds) == {"error", "delay", "torn"}
    # degradation was real: some writes were refused/failed and retried, and
    # impossible deadlines actually raised QueryTimeout
    assert writer_retries > 0
    assert timeouts > 0
    assert "cyclic" in families  # DRed maintenance under faults
    assert "bounded" in families  # counting maintenance under faults
