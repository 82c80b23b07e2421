"""E4 — Figure 9: the general schema on one-sided recursions beyond the canonical one.

Two recursions the paper singles out:

* **Example 3.4** — one-sided, but its expansion contains a disconnected
  ``d(Z)`` instance, the documented exception to Property 3 (the schema must
  do one unrestricted lookup on ``d``).
* **Example 4.1 (TC with permissions)** — one-sided, but no arity reduction:
  the carry stays binary.

For each, the compiled schema is compared against magic sets and against
semi-naive + select; answers must agree, and the schema must preserve the
E2/E3 shape (restricted lookups, small state) up to the documented exceptions.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import magic_query
from repro.core import OneSidedSchema, one_sided_query
from repro.engine import SelectionQuery, seminaive_query
from repro.testing.reference import step_machine
from repro.workloads import (
    example_3_4,
    permissions_database,
    random_graph,
    random_pairs,
    relations_database,
    tc_with_permissions,
)
from .helpers import attach, emit, run_once


def example_3_4_workload(scale: int = 1):
    program = example_3_4()
    database = relations_database(
        e=random_pairs(120 * scale, 40 * scale, seed=3),
        d=[(value,) for value in range(10 * scale)],
        t0=[(i % (40 * scale), (i * 7) % (40 * scale), (i * 3) % (40 * scale)) for i in range(30 * scale)],
    )
    query = SelectionQuery.of("t", 3, {1: 1})
    return program, database, query


def permissions_workload(scale: int = 1):
    program = tc_with_permissions()
    database = permissions_database(random_graph(20 * scale, 50 * scale, seed=9), permission_fraction=0.6, seed=9)
    query = SelectionQuery.of("t", 2, {0: 0})
    return program, database, query


WORKLOADS = {
    "Example 3.4, t(X, 1, Z)": example_3_4_workload,
    "TC with permissions, t(0, Y)": permissions_workload,
}


def compare(name: str, factory):
    program, database, query = factory()
    schema = one_sided_query(program, database, query)
    magic = magic_query(program, database, query)
    semi_answers, semi_stats = seminaive_query(
        program, database, query.predicate, query.bindings_dict()
    )
    assert schema.answers == semi_answers == magic.answers
    return [
        [f"{name} / one-sided schema", schema.stats.tuples_examined, schema.stats.peak_state_tuples,
         schema.stats.unrestricted_lookups, int(schema.stats.extra.get("carry_arity", 0)), len(schema.answers)],
        [f"{name} / magic sets", magic.stats.tuples_examined, magic.stats.peak_state_tuples,
         magic.stats.unrestricted_lookups, "-", len(magic.answers)],
        [f"{name} / semi-naive + select", semi_stats.tuples_examined, semi_stats.peak_state_tuples,
         semi_stats.unrestricted_lookups, "-", len(semi_answers)],
    ]


def test_e04_report(benchmark):
    def build():
        rows = []
        for name, factory in WORKLOADS.items():
            rows.extend(compare(name, factory))
        return rows

    rows = run_once(benchmark, build)
    emit(
        "E4: the general Figure 9 schema on non-canonical one-sided recursions",
        ["workload / strategy", "tuples examined", "peak state", "unrestricted", "carry arity", "answers"],
        rows,
    )
    attach(benchmark, workloads=len(WORKLOADS))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_e04_schema(benchmark, name):
    program, database, query = WORKLOADS[name]()
    result = run_once(benchmark, one_sided_query, program, database, query)
    attach(benchmark, tuples_examined=result.stats.tuples_examined,
           carry_arity=result.stats.extra.get("carry_arity"), answers=len(result.answers))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_e04_seminaive_baseline(benchmark, name):
    program, database, query = WORKLOADS[name]()
    answers, stats = run_once(
        benchmark, seminaive_query, program, database, query.predicate, query.bindings_dict()
    )
    attach(benchmark, tuples_examined=stats.tuples_examined, answers=len(answers))


def test_e04_shape_schema_beats_full_evaluation(benchmark):
    def ratios():
        result = {}
        for name, factory in WORKLOADS.items():
            program, database, query = factory()
            schema = one_sided_query(program, database, query)
            _ref, semi_stats = seminaive_query(program, database, query.predicate, query.bindings_dict())
            result[name] = semi_stats.tuples_examined / max(1, schema.stats.tuples_examined)
        return result

    gaps = run_once(benchmark, ratios)
    emit("E4: semi-naive / schema tuples-examined ratio", ["workload", "ratio"], list(gaps.items()))
    attach(benchmark, **{k.split(",")[0]: round(v, 1) for k, v in gaps.items()})
    assert all(ratio > 1.5 for ratio in gaps.values())


#: the schema's exact counts per workload: (tuples examined, unrestricted lookups, carry arity)
PINNED_COUNTS = {
    "Example 3.4, t(X, 1, Z)": (13_534, 1_203, 3),
    "TC with permissions, t(0, Y)": (585, 0, 2),
}
#: least semi-naive / schema seconds ratio (min of 7 runs each, generated run),
#: about a third of the 29-34x and 2.3-2.6x measured on a 2-core x86-64 VM
SECONDS_MARGIN = {"Example 3.4, t(X, 1, Z)": 10.0, "TC with permissions, t(0, Y)": 1.5}


def _best_seconds(call, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_e04_pinned_counts_and_seconds(benchmark, name):
    """The schema's counts are exact and the same with kernels on and off; in
    seconds, the generated run beats semi-naive + select by the measured margin."""
    program, database, query = WORKLOADS[name]()

    def measure():
        counts = []
        for kernels in (True, False):
            with step_machine(not kernels):
                stats = one_sided_query(program, database, query).stats
            counts.append((stats.tuples_examined, stats.unrestricted_lookups, int(stats.extra["carry_arity"])))
        with step_machine(False):
            schema = _best_seconds(lambda: one_sided_query(program, database, query))
            seminaive = _best_seconds(
                lambda: seminaive_query(program, database, query.predicate, query.bindings_dict())
            )
        return counts, schema, seminaive

    counts, schema, seminaive = run_once(benchmark, measure)
    attach(benchmark, schema_ms=round(schema * 1e3, 3), seminaive_ms=round(seminaive * 1e3, 3),
           seconds_ratio=round(seminaive / schema, 1))
    assert counts == [PINNED_COUNTS[name]] * 2
    assert seminaive / schema >= SECONDS_MARGIN[name]


def test_e04_documented_property_exceptions(benchmark):
    """Example 3.4's d(Z) forces an unrestricted lookup; permissions keep a binary carry."""
    def facts():
        program, database, query = example_3_4_workload()
        ex34 = one_sided_query(program, database, query)
        program2, database2, query2 = permissions_workload()
        perms = OneSidedSchema(program2, "t", query2)
        return ex34.stats.unrestricted_lookups, perms.plan.carry_arity

    unrestricted, carry_arity = run_once(benchmark, facts)
    attach(benchmark, example_3_4_unrestricted=unrestricted, permissions_carry_arity=carry_arity)
    assert unrestricted >= 1
    assert carry_arity == 2
