"""Differential fuzzing: all engines must agree on seeded random cases.

This is the permanent tier-1 foothold of the ``repro.testing`` harness: 84
deterministic seeds spanning every generator family (chain, tree, cyclic,
cross-product, one-sided, two-sided, bounded) run through naive, semi-naive,
magic sets, counting and the optimizer front door (``repro.answer`` with
``strategy="auto"``, which exercises bounded-recursion unfolding, the
one-sided schema, counting and magic as the rewrites dictate), asserting
identical results tuple for tuple.  Any failure names its seed, so it
reproduces with ``generate_case(seed)``.

The bounded family gets extra dedicated seeds beyond the base batch so the
unfolding pass sees a wider spread of shapes and databases.  So does the
labelled family, which only extra seeds reach: arity-3 closures whose plans
probe two columns of a relation at once.
"""

from __future__ import annotations

import pytest

from repro.engine import seminaive_evaluate
from repro.engine.instrumentation import query_trace
from repro.engine.seminaive import fixpoint_plans
from repro.obs.profile import ProfileRecorder
from repro.testing import (
    FAMILIES,
    generate_case,
    generate_cases,
    run_batch,
    run_differential,
)
from repro.testing.generate import generate_labelled_case
from repro.testing.reference import batching

SEED_COUNT = 84

#: extra seeds that land on the bounded family (seed % len(FAMILIES) picks it)
BOUNDED_INDEX = FAMILIES.index("bounded")
BOUNDED_EXTRA_SEEDS = [
    seed
    for seed in range(SEED_COUNT, SEED_COUNT + 20 * len(FAMILIES))
    if seed % len(FAMILIES) == BOUNDED_INDEX
][:16]
#: extra seeds of the labelled family, which no base seed lands on
LABELLED_SEEDS = range(SEED_COUNT, SEED_COUNT + 16)


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_engines_agree_on_seeded_case(seed):
    report = run_differential(generate_case(seed))
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)


@pytest.mark.parametrize("seed", BOUNDED_EXTRA_SEEDS)
def test_bounded_family_extra_seeds(seed):
    """Deeper coverage for the family that drives the unfolding pass."""
    case = generate_case(seed)
    assert case.family == "bounded"
    report = run_differential(case)
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)


@pytest.mark.parametrize("seed", LABELLED_SEEDS)
def test_labelled_family_extra_seeds(seed):
    """Every engine and pinned mode agrees on arity-3 closures; forcing the
    batch executor finds no template for their stratum."""
    case = generate_labelled_case(seed)
    assert case.family == "labelled"
    report = run_differential(case)
    assert report.ok, report.summary() + "\n" + "\n".join(report.mismatches)
    recorder = ProfileRecorder(str(case.query), trace_id=f"forced-{case.name}")
    with batching("force"), query_trace(recorder.trace_id, recorder):
        seminaive_evaluate(case.program, case.database)
    assert [(d.dispatch, d.detail) for d in recorder.strata] == [("kernel-loop", "no-batch-template")]


def test_labelled_plans_probe_two_of_three_columns():
    """The family exists to reach multi-column index keys: every case's
    recursive plan probes an arity-3 relation on exactly two columns, with a
    variable pair or a variable and a constant."""
    keys = set()
    for seed in LABELLED_SEEDS:
        case = generate_labelled_case(seed)
        relations = {relation.name: relation for relation in case.database.relations()}
        probes = [
            (step.predicate, step.probe_columns, tuple(is_const for is_const, _ in step.key_ops))
            for plan in fixpoint_plans(case.program, relations)
            for step in plan.steps
            if len(step.probe_columns) == 2
        ]
        assert probes, case.name
        keys.update(const for _predicate, _columns, const in probes)
    assert keys == {(False, False), (False, True)}


def test_generation_is_deterministic():
    first = generate_case(7)
    second = generate_case(7)
    assert first.family == second.family
    assert first.program == second.program
    assert first.query == second.query
    assert {r.name: r.rows() for r in first.database.relations()} == {
        r.name: r.rows() for r in second.database.relations()
    }


def test_batch_covers_every_family_and_engine():
    """The harness must actually exercise what it claims to exercise.

    Each generator family appears in the batch, and each engine runs (not
    "skipped") on a healthy share of the cases — magic on every case with a
    bound column, counting on a substantial minority (its scope excludes
    non-chain shapes, IDB exit rules, column-1 queries and cyclic data), and
    the optimizer front door on every single case.
    """
    cases = generate_cases(SEED_COUNT)
    assert {case.family for case in cases} == set(FAMILIES)

    reports, coverage = run_batch(cases)
    assert all(report.ok for report in reports)
    assert coverage["oracle"] == SEED_COUNT
    assert coverage["naive"] == SEED_COUNT
    assert coverage["seminaive"] == SEED_COUNT
    assert coverage["magic"] >= SEED_COUNT * 0.9
    assert coverage["counting"] >= SEED_COUNT * 0.25
    assert coverage["optimized"] == SEED_COUNT
    # the engine runtime's execution modes run (and must agree) on every case
    assert coverage["interpreted"] == SEED_COUNT
    assert coverage["kernel"] == SEED_COUNT
    assert coverage["columnar"] == SEED_COUNT


def test_unfolding_actually_fires_on_bounded_cases():
    """Every bounded-family case must be answered by the unfolding rewrite.

    The bounded generator only emits uniformly bounded recursions, so the
    optimizer front door should evaluate each of them recursion-free; if it
    ever falls back to a fixpoint strategy here, the unfolding pass has
    silently regressed.
    """
    cases = [case for case in generate_cases(SEED_COUNT) if case.family == "bounded"]
    assert cases, "the batch lost its bounded family"
    reports, _coverage = run_batch(cases)
    strategies = [report.strategies.get("optimized", "") for report in reports]
    assert all("unfolded" in strategy for strategy in strategies), strategies


def test_queries_sometimes_empty_and_sometimes_bind_column_one():
    """The query generator keeps its promised edge cases in the mix."""
    cases = generate_cases(SEED_COUNT)
    columns = {case.query.bound_columns() for case in cases}
    assert (0,) in columns
    assert (1,) in columns
    absent = [case for case in cases if "nowhere" in dict(case.query.bindings).values()]
    assert absent, "no case queried a constant absent from the database"
