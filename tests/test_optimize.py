"""Tests for the pass-based optimizer (:mod:`repro.optimize`)."""

from __future__ import annotations

import pytest

from repro.datalog import EvaluationError, parse_program
from repro.engine import SelectionQuery, seminaive_query
from repro.optimize import (
    Optimizer,
    RedundancyRemovalPass,
    apply_unfolding,
    default_passes,
    detection_passes,
    evaluate_unfolded,
    optimize_program,
    unfold_bounded,
)
from repro.workloads import (
    appendix_a_p,
    bounded_guard_tc,
    bounded_swap,
    buys_optimized,
    buys_unoptimized,
    canonical_two_sided,
    nonlinear_tc,
    transitive_closure,
)
from repro.datalog.database import Database


class TestUnfoldBounded:
    def test_guard_recursion_unfolds_to_exit_rule(self):
        definition = unfold_bounded(bounded_guard_tc(), "t")
        assert definition is not None
        assert definition.witness_depth == 1
        assert len(definition.rules) == 1
        assert definition.rules[0].body[0].predicate == "b"

    def test_swap_recursion_unfolds_at_depth_two(self):
        definition = unfold_bounded(bounded_swap(), "t")
        assert definition is not None
        assert definition.witness_depth == 2
        assert len(definition.rules) == 2

    def test_unbounded_recursion_does_not_unfold(self):
        assert unfold_bounded(transitive_closure(), "t", max_depth=4) is None

    def test_nonlinear_recursion_is_out_of_scope(self):
        assert unfold_bounded(nonlinear_tc(), "t") is None

    def test_idb_exit_layer_declines_to_fire(self):
        """Strings that still mention IDB predicates must not be unfolded."""
        program = parse_program(
            """
            pair(X, Y) :- c(X), d(Y).
            t(X, Y) :- pair(X, Y).
            t(X, Y) :- a(X, Y), t(X, Y).
            """
        )
        assert unfold_bounded(program, "t") is None

    def test_unfolded_program_matches_fixpoint_semantics(self):
        program = bounded_swap()
        definition = unfold_bounded(program, "t")
        rewritten = apply_unfolding(program, definition)
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1), (2, 3), (4, 4)], "b": [(1, 2), (2, 1), (3, 4)]}
        )
        reference, _ = seminaive_query(program, database, "t")
        unfolded, _ = seminaive_query(rewritten, database, "t")
        assert unfolded == reference

    def test_evaluate_unfolded_pushes_selection(self):
        program = bounded_swap()
        definition = unfold_bounded(program, "t")
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1), (2, 3)], "b": [(1, 2), (2, 1), (3, 4)]}
        )
        query = SelectionQuery.of("t", 2, {0: 1})
        answers, stats = evaluate_unfolded(definition, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert answers == reference
        assert stats.plans_compiled == len(definition.rules)
        # the selection is pushed into the joins: no unrestricted scans needed
        assert stats.unrestricted_lookups == 0


class TestOptimizerRuns:
    def test_full_chain_on_bounded_program(self):
        result = optimize_program(appendix_a_p(), "p")
        assert result.uniformly_bounded is True
        assert result.unfolded is not None
        assert "bounded-unfolding" in result.fired()
        assert not result.program.is_recursive_predicate("p")
        # the pre-unfold program is still the recursion the verdicts describe
        assert result.optimized.is_recursive_predicate("p")

    def test_full_chain_on_unbounded_program_skips_witness_search(self):
        result = optimize_program(transitive_closure(), "t")
        assert result.uniformly_bounded is False
        assert result.unfolded is None
        unfolding = [r for r in result.rewrites if r.pass_name == "bounded-unfolding"]
        assert unfolding and "provably unbounded" in unfolding[0].detail

    def test_redundancy_pass_fires_on_buys(self):
        result = optimize_program(buys_unoptimized(), "buys")
        assert "redundancy-removal" in result.fired()
        assert result.optimized == buys_optimized()

    def test_out_of_scope_program_records_every_pass_as_noop(self):
        result = optimize_program(nonlinear_tc(), "t")
        assert result.out_of_scope
        assert result.fired() == []
        assert any("undecidable" in note for note in result.notes)

    def test_describe_lists_one_line_per_pass(self):
        result = optimize_program(canonical_two_sided(), "t")
        lines = result.describe().splitlines()
        assert len(lines) == len(default_passes())

    def test_redundancy_verification_cross_checks_the_rewrite(self):
        passes = (RedundancyRemovalPass(verify=True),) + detection_passes()[1:]
        result = Optimizer(passes).run(buys_unoptimized(), "buys")
        assert result.optimized == buys_optimized()


class TestFrontDoorUnfolded:
    def test_forced_unfolded_on_unbounded_program_raises(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]})
        with pytest.raises(EvaluationError):
            from repro import answer

            answer(transitive_closure(), database, "t(1, Y)?", strategy="unfolded")

    def test_forced_unfolded_on_bounded_program(self):
        from repro import answer

        database = Database.from_dict({"a": [(1, 2), (2, 1)], "b": [(1, 2), (2, 1), (3, 4)]})
        result = answer(bounded_swap(), database, "t(1, Y)?", strategy="unfolded")
        assert result.strategy == "unfolded"
        reference, _ = seminaive_query(bounded_swap(), database, "t", {0: 1})
        assert result.answers == reference
        assert result.provenance is not None
        assert "bounded-unfolding" in result.provenance.fired()

    def test_forced_unfolded_searches_full_depth_when_boundedness_undecided(self):
        """Repeated nonrecursive predicates leave the structural criterion
        undecided; a forced unfolding must still search ``MAX_UNFOLD_DEPTH``,
        not the cheaper fallback the auto chain uses."""
        from repro import answer
        from repro.core.boundedness import bounded_prefix_depth

        program = parse_program(
            """
            t(X, Y, Z, W) :- a(X, Y), a(Z, W), t(Y, Z, W, X).
            t(X, Y, Z, W) :- b(X, Y, Z, W).
            """
        )
        assert bounded_prefix_depth(program, "t", 8) == 4
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1)], "b": [(1, 2, 1, 2), (2, 1, 2, 1)]}
        )
        result = answer(
            program, database, SelectionQuery.of("t", 4, {0: 1}), strategy="unfolded"
        )
        assert result.provenance.unfolded.witness_depth == 4
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert result.answers == reference
        # the auto chain keeps its cheap fallback: no unfolding at depth 3
        auto = answer(program, database, SelectionQuery.of("t", 4, {0: 1}))
        assert "unfolded" not in auto.strategy
        assert auto.answers == reference
