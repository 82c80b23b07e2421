"""Generated join kernels must match the interpreted step machine exactly.

Every assertion here runs the same compiled plan (or whole evaluation) once on
generated kernels and once on the reference step machine
(:func:`repro.testing.reference.step_machine`) and demands identical results
*and* identical instrumentation counters — the contract that lets the
generated code be the only executor in the product.
"""

from __future__ import annotations

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.relation import Relation
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.engine import (
    EvaluationStats,
    compile_delta_variants,
    compile_rule,
    seminaive_evaluate,
)
from repro.engine.kernels import EXECUTOR
from repro.testing import generate_case
from repro.testing.reference import step_machine
from repro.workloads import ALL_CANONICAL, edge_database, layered_dag


def sample_relations():
    database = edge_database(layered_dag(4, 3, 2, seed=11))
    relations = {r.name: r for r in database.relations()}
    relations["t"] = Relation("t", 2, [(0, 1), (1, 5), (2, 4), (5, 7)])
    return relations


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    # what a call compiled: a program's later evaluations reuse its kept plans
    values.pop("plans_compiled", None)
    return values


def evaluate_both_ways(plan, relations, **kwargs):
    """(kernel result, interpreted result, kernel stats, interpreted stats)."""
    kernel_stats = EvaluationStats()
    interpreted_stats = EvaluationStats()
    with step_machine(False):
        kernel_result = plan.evaluate(relations, stats=kernel_stats, **kwargs)
    with step_machine():
        interpreted_result = plan.evaluate(relations, stats=interpreted_stats, **kwargs)
    return kernel_result, interpreted_result, kernel_stats, interpreted_stats


class TestKernelEquivalence:
    def test_matches_interpreted_on_canonical_rules(self):
        relations = sample_relations()
        for name, factory in ALL_CANONICAL.items():
            program = factory()
            for rule in program.rules:
                plan = compile_rule(rule, relations)
                kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
                assert kernel == interpreted, f"{name}: {rule}"
                assert counters(ks) == counters(bs), f"{name}: {rule}"

    def test_repeated_variable_within_atom(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1), (1, 2), (3, 3)])}
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(1,), (3,)}
        assert counters(ks) == counters(bs)

    def test_constants_in_body_and_head(self):
        rule = Rule(Atom.of("t", "X", "fixed"), (Atom.of("e", 1, "X"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20), (1, 30)])}
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(10, "fixed"), (30, "fixed")}
        assert counters(ks) == counters(bs)

    def test_multi_column_probe(self):
        # second atom probes two columns at once: key stays a tuple
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"), Atom.of("f", "X", "Y")))
        relations = {
            "e": Relation("e", 2, [(1, 2), (3, 4), (5, 6)]),
            "f": Relation("f", 2, [(1, 2), (5, 6), (7, 8)]),
        }
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(1, 2), (5, 6)}
        assert counters(ks) == counters(bs)

    def test_bound_variables_and_bindings(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20)])}
        x = Variable("X")
        plan = compile_rule(rule, relations, bound=(x,))
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations, bindings={x: 1})
        assert kernel == interpreted == {(1, 10)}
        assert counters(ks) == counters(bs)
        with step_machine(False), pytest.raises(ValueError):
            plan.evaluate(relations)

    def test_delta_override_equivalence(self):
        relations = sample_relations()
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")),
        )
        delta = Relation("t", 2, [(1, 5), (5, 7)])
        for _predicate, occurrence, plan in compile_delta_variants(compile_rule, [rule], {"t"}):
            kernel, interpreted, ks, bs = evaluate_both_ways(
                plan, relations, overrides={occurrence: delta}
            )
            assert kernel == interpreted
            assert counters(ks) == counters(bs)

    def test_missing_relation_records_one_lookup(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("missing", "X"),))
        plan = compile_rule(rule)
        for enabled in (True, False):
            stats = EvaluationStats()
            with step_machine(not enabled):
                assert plan.evaluate({}, stats=stats) == set()
            assert stats.lookups == 1

    def test_unproducible_plan_is_empty_in_both_modes(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1)])}
        plan = compile_rule(rule, relations)
        assert not plan.producible
        for enabled in (True, False):
            with step_machine(not enabled):
                assert plan.evaluate(relations) == set()

    def test_join_multiplicities_match(self):
        # distinct assignments projecting onto the same head carry the
        # multiplicities the counting maintenance layer consumes
        relations = {"e": Relation("e", 2, [(1, 10), (1, 20), (2, 30)])}
        rule = Rule(Atom.of("t", "X"), (Atom.of("e", "X", "Y"),))
        plan = compile_rule(rule, relations)
        with step_machine(False):
            kernel = sorted(plan.join(relations))
        with step_machine():
            interpreted = sorted(plan.join(relations))
        assert kernel == interpreted
        assert len(kernel) == 3  # multiset, not deduplicated


class TestFullEvaluationParity:
    @pytest.mark.parametrize("seed", [0, 3, 7, 19, 42])
    def test_seminaive_counters_identical_across_modes(self, seed):
        case = generate_case(seed)
        results = {}
        stats_by_mode = {}
        for mode, kernels in (("interpreted", False), ("kernel", True)):
            stats = EvaluationStats()
            with step_machine(not kernels):
                derived = seminaive_evaluate(case.program, case.database, stats)
            results[mode] = {p: r.rows() for p, r in derived.items()}
            stats_by_mode[mode] = counters(stats)
        assert results["interpreted"] == results["kernel"]
        assert stats_by_mode["interpreted"] == stats_by_mode["kernel"]


class TestKernelSource:
    def test_kernel_source_is_inspectable(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")))
        plan = compile_rule(rule)
        # the generated kernel is memoized on the plan on first use
        eval_kernel = EXECUTOR.kernel(plan, True)
        assert EXECUTOR.kernel(plan, True) is eval_kernel
        assert "def _kernel(rels, initial, stats):" in eval_kernel.__kernel_source__
        assert "out_add(" in eval_kernel.__kernel_source__
