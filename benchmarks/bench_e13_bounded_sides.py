"""E13 — Section 5 (conclusion): fully-bound selections on many-sided recursions.

Reproduced claim: "in the same generation query, the canonical two-sided
recursion, the query sg(john, june)? can be evaluated efficiently using
essentially the general schema for evaluating single selection queries on
one-sided recursions ... because although the recursion is two-sided, each
unbounded connected component in the expansion of the recursion contains a
selection constant."

The benchmark compares three plans for ``sg(c1, c2)?`` on growing family
trees: the Figure 9 schema (routed by the coverage check), magic sets, and
semi-naive + select.  The schema and magic sets should both stay proportional
to the two ancestor chains of the constants; semi-naive pays for the whole
relation.
"""

from __future__ import annotations

import pytest

from repro.baselines import magic_query
from repro import answer
from repro.core import selection_covers_unbounded_sides
from repro.engine import SelectionQuery, seminaive_query
from repro.workloads import same_generation, same_generation_database
from .helpers import attach, emit, run_once

PROGRAM = same_generation()
DEPTHS = [3, 4, 5]  # tree depth; tree size grows 3^depth


def make_workload(depth: int):
    database = same_generation_database(branching=3, depth=depth)
    people = sorted(row[0] for row in database.relation("sg0"))
    left, right = people[len(people) // 3], people[2 * len(people) // 3]
    return database, SelectionQuery.of("sg", 2, {0: left, 1: right})


def comparison_rows(depth: int):
    database, query = make_workload(depth)
    routed = answer(PROGRAM, database, query)
    magic = magic_query(PROGRAM, database, query)
    reference, semi_stats = seminaive_query(PROGRAM, database, "sg", query.bindings_dict())
    assert routed.answers == reference == magic.answers
    people = len(database.relation("sg0"))
    return [
        [f"Fig 9 schema (bounded sides), people={people}", routed.stats.tuples_examined,
         routed.stats.peak_state_tuples, routed.stats.unrestricted_lookups, len(reference)],
        [f"magic sets, people={people}", magic.stats.tuples_examined,
         magic.stats.peak_state_tuples, magic.stats.unrestricted_lookups, len(reference)],
        [f"semi-naive + select, people={people}", semi_stats.tuples_examined,
         semi_stats.peak_state_tuples, semi_stats.unrestricted_lookups, len(reference)],
    ], routed.stats, semi_stats


def test_e13_coverage_detection(benchmark):
    def check():
        return (
            selection_covers_unbounded_sides(PROGRAM, "sg", {0, 1}),
            selection_covers_unbounded_sides(PROGRAM, "sg", {0}),
        )

    both, single = run_once(benchmark, check)
    assert both is True and single is False
    attach(benchmark, both_covered=both, single_covered=single)


def test_e13_report(benchmark):
    def build():
        rows = []
        for depth in DEPTHS:
            new_rows, _r, _s = comparison_rows(depth)
            rows.extend(new_rows)
        return rows

    rows = run_once(benchmark, build)
    emit(
        "E13: sg(c1, c2)? on the two-sided same-generation recursion",
        ["strategy / size", "tuples examined", "peak state", "unrestricted", "answers"],
        rows,
    )
    attach(benchmark, depths=len(DEPTHS))


@pytest.mark.parametrize("depth", DEPTHS)
def test_e13_schema_route(benchmark, depth):
    database, query = make_workload(depth)
    result = run_once(benchmark, answer, PROGRAM, database, query)
    assert "bounded sides" in result.strategy
    attach(benchmark, tuples_examined=result.stats.tuples_examined, answers=len(result.answers))


@pytest.mark.parametrize("depth", DEPTHS)
def test_e13_seminaive_baseline(benchmark, depth):
    database, query = make_workload(depth)
    answers, stats = run_once(benchmark, seminaive_query, PROGRAM, database, "sg", query.bindings_dict())
    attach(benchmark, tuples_examined=stats.tuples_examined, answers=len(answers))


def test_e13_shape_bounded_sides_beats_full_evaluation(benchmark):
    def ratios():
        result = []
        for depth in DEPTHS:
            _rows, routed_stats, semi_stats = comparison_rows(depth)
            result.append(semi_stats.tuples_examined / max(1, routed_stats.tuples_examined))
        return result

    gaps = run_once(benchmark, ratios)
    emit("E13: semi-naive / schema tuples-examined ratio", ["tree depth", "ratio"],
         [[d, r] for d, r in zip(DEPTHS, gaps)])
    attach(benchmark, ratios=[round(r, 1) for r in gaps])
    assert all(ratio > 10 for ratio in gaps)
    assert gaps[-1] > gaps[0]
