"""Tests for the Section 4 cross-product ([JAN87]) rewriting."""

from __future__ import annotations

import pytest

from repro.core import (
    classify,
    cross_product_rewriting,
    materialize_combined_relation,
    one_sided_query,
)
from repro.datalog import Database, ProgramError, parse_program
from repro.engine import EvaluationStats, SelectionQuery, seminaive_evaluate, seminaive_query
from repro.workloads import canonical_two_sided, chain, transitive_closure


@pytest.fixture
def two_sided_db() -> Database:
    return Database.from_dict(
        {
            "a": chain(4),
            "b": [(4, "z0")],
            "c": [(f"z{i}" if i else "z0", f"z{i + 1}") for i in range(6)],
        }
    )


class TestRewriting:
    def test_combined_rule_shape(self, two_sided_program):
        rewriting = cross_product_rewriting(two_sided_program, "t")
        assert rewriting.combined_rule.head.arity == 4
        assert {a.predicate for a in rewriting.combined_rule.body} == {"a", "c"}
        recursive_rule = rewriting.rewritten.linear_recursive_rule("t")
        assert len(recursive_rule.nonrecursive_atoms()) == 1

    def test_two_sided_rewriting_introduces_cross_product(self, two_sided_program):
        assert cross_product_rewriting(two_sided_program, "t").introduces_cross_product

    def test_one_sided_rewriting_does_not(self, tc_program):
        rewriting = cross_product_rewriting(tc_program, "t")
        assert not rewriting.introduces_cross_product

    def test_rewritten_two_sided_recursion_looks_one_sided(self, two_sided_program):
        """The paper: the rewritten recursion is 'superficially a one-sided recursion'."""
        rewriting = cross_product_rewriting(two_sided_program, "t")
        report = classify(rewriting.rewritten, "t")
        assert report.is_one_sided

    def test_name_collisions_are_avoided(self):
        program = parse_program(
            """
            t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
            t(X, Y) :- b(X, Y).
            a_c_combined(X) :- a(X, X).
            """
        )
        rewriting = cross_product_rewriting(program, "t")
        assert rewriting.combined_predicate != "a_c_combined"

    def test_rejects_rules_without_nonrecursive_atoms(self):
        program = parse_program("t(X, Y) :- t(Y, X). t(X, Y) :- b(X, Y).")
        with pytest.raises(ProgramError):
            cross_product_rewriting(program, "t")


class TestSemantics:
    def test_rewritten_program_is_equivalent(self, two_sided_program, two_sided_db):
        rewriting = cross_product_rewriting(two_sided_program, "t")
        original = seminaive_evaluate(two_sided_program, two_sided_db)["t"].rows()
        rewritten = seminaive_evaluate(rewriting.rewritten, two_sided_db)["t"].rows()
        assert original == rewritten

    def test_materialized_relation_is_the_cross_product(self, two_sided_program, two_sided_db):
        rewriting = cross_product_rewriting(two_sided_program, "t")
        stats = EvaluationStats()
        combined = materialize_combined_relation(rewriting, two_sided_db, stats)
        assert len(combined) == len(two_sided_db.relation("a")) * len(two_sided_db.relation("c"))
        assert stats.unrestricted_lookups >= 1

    def test_a_head_variable_no_atom_binds_still_counts_the_join(self, tc_program, two_sided_db):
        # t(X, Y) :- a(X, Z), t(Z, Y) combines to a_combined(X, Y, Z) :- a(X, Z): Y is never bound
        rewriting = cross_product_rewriting(tc_program, "t")
        stats = EvaluationStats()
        combined = materialize_combined_relation(rewriting, two_sided_db, stats)
        assert len(combined) == 0
        assert (stats.lookups, stats.unrestricted_lookups) == (1, 1)
        assert stats.tuples_examined == len(two_sided_db.relation("a"))

    def test_property_3_violation_is_measurable(self, two_sided_program, two_sided_db):
        """Evaluating a selection through the rewriting examines all of c."""
        rewriting = cross_product_rewriting(two_sided_program, "t")
        stats = EvaluationStats()
        combined = materialize_combined_relation(rewriting, two_sided_db, stats)
        extended = two_sided_db.copy()
        extended.add_relation(combined)
        query = SelectionQuery.of("t", 2, {0: 0})
        result = one_sided_query(rewriting.rewritten, extended, query, stats=stats)
        reference, _ = seminaive_query(two_sided_program, two_sided_db, "t", {0: 0})
        assert result.answers == reference
        # the combined relation alone is already as large as |a| x |c|
        assert stats.tuples_examined >= len(two_sided_db.relation("c"))
