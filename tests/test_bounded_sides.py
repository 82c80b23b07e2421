"""Tests for the Section 5 extension: selections covering every unbounded side.

The paper's conclusion observes that `sg(john, june)?` — a query on the
canonical two-sided recursion that binds *both* columns — can be evaluated
with essentially the one-sided schema, because each unbounded connected set of
the expansion contains a selection constant.  The library implements that
observation: :func:`repro.core.selection_covers_unbounded_sides` detects the
situation and the planner routes such queries to the Figure 9 schema.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import answer
from repro.core import selection_covers_unbounded_sides
from repro.datalog import ProgramError
from repro.engine import SelectionQuery, seminaive_query
from repro.workloads import (
    canonical_two_sided,
    example_3_5,
    nonlinear_tc,
    random_pairs,
    relations_database,
    same_generation,
    same_generation_database,
    tc_with_permissions,
    transitive_closure,
)


class TestCoverageDetection:
    def test_same_generation_needs_both_columns(self):
        program = same_generation()
        assert selection_covers_unbounded_sides(program, "sg", {0, 1})
        assert not selection_covers_unbounded_sides(program, "sg", {0})
        assert not selection_covers_unbounded_sides(program, "sg", {1})
        assert not selection_covers_unbounded_sides(program, "sg", set())

    def test_canonical_two_sided_needs_both_columns(self):
        program = canonical_two_sided()
        assert selection_covers_unbounded_sides(program, "t", {0, 1})
        assert not selection_covers_unbounded_sides(program, "t", {1})

    def test_one_sided_recursion_head_side_selection_covers(self):
        assert selection_covers_unbounded_sides(transitive_closure(), "t", {0})
        assert selection_covers_unbounded_sides(tc_with_permissions(), "t", {0})
        assert selection_covers_unbounded_sides(tc_with_permissions(), "t", {1})

    def test_example_3_5_single_component_covered_by_either_column(self):
        # Example 3.5 has one component (cycle weight 2) containing both X and Y,
        # so either constant formally covers it — coverage is necessary, not
        # sufficient, for the schema to apply (the schema itself still refuses).
        program = example_3_5()
        assert selection_covers_unbounded_sides(program, "t", {0})
        assert selection_covers_unbounded_sides(program, "t", {1})

    def test_out_of_scope_program_raises(self):
        with pytest.raises(ProgramError):
            selection_covers_unbounded_sides(nonlinear_tc(), "t", {0})


class TestPlannerRoute:
    def test_fully_bound_same_generation_uses_the_schema(self):
        program = same_generation()
        database = same_generation_database(branching=3, depth=4)
        query = SelectionQuery.of("sg", 2, {0: 13, 1: 17})
        result = answer(program, database, query)
        reference, reference_stats = seminaive_query(program, database, "sg", {0: 13, 1: 17})
        assert result.answers == reference
        assert "bounded sides" in result.strategy
        assert result.stats.tuples_examined < reference_stats.tuples_examined / 10

    def test_partially_bound_same_generation_still_uses_magic(self):
        program = same_generation()
        database = same_generation_database(branching=2, depth=3)
        result = answer(program, database, SelectionQuery.of("sg", 2, {0: 3}))
        assert "magic" in result.strategy

    def test_fully_bound_two_sided_matches_seminaive(self):
        program = canonical_two_sided()
        database = relations_database(
            a=random_pairs(25, 10, seed=51),
            b=random_pairs(10, 10, seed=52),
            c=random_pairs(25, 10, seed=53),
        )
        query = SelectionQuery.of("t", 2, {0: 1, 1: 4})
        result = answer(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: 1, 1: 4})
        assert result.answers == reference
        assert "bounded sides" in result.strategy

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 9), st.integers(0, 9))
    def test_fully_bound_queries_agree_with_seminaive_property(self, seed, left, right):
        program = canonical_two_sided()
        database = relations_database(
            a=random_pairs(18, 10, seed=seed),
            b=random_pairs(8, 10, seed=seed + 1),
            c=random_pairs(18, 10, seed=seed + 2),
        )
        query = SelectionQuery.of("t", 2, {0: left, 1: right})
        result = answer(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: left, 1: right})
        assert result.answers == reference
