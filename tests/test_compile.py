"""Compiled rule plans must match the interpreted evaluator exactly."""

from __future__ import annotations

import pytest

from repro.datalog import Database
from repro.datalog.atoms import Atom
from repro.datalog.relation import Relation
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.engine import (
    EvaluationStats,
    compile_delta_variants,
    compile_rule,
    evaluate_rule,
    naive_evaluate,
    seminaive_evaluate,
)
from repro.engine.cq_eval import evaluate_rule_with_delta
from repro.testing import generate_case
from repro.workloads import ALL_CANONICAL, edge_database, layered_dag


def sample_relations():
    database = edge_database(layered_dag(4, 3, 2, seed=11))
    relations = {r.name: r for r in database.relations()}
    relations["t"] = Relation("t", 2, [(0, 1), (1, 5), (2, 4), (5, 7)])
    return relations


class TestCompiledRuleEquivalence:
    def test_matches_interpreted_on_canonical_rules(self):
        relations = sample_relations()
        for name, factory in ALL_CANONICAL.items():
            program = factory()
            for rule in program.rules:
                interpreted = evaluate_rule(rule, relations)
                compiled = compile_rule(rule, relations).evaluate(relations)
                assert compiled == interpreted, f"{name}: {rule}"

    def test_repeated_variable_within_atom(self):
        # t(X) :- e(X, X) — the second occurrence is an in-atom equality check
        rule = Rule(Atom.of("t", "X"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1), (1, 2), (3, 3)])}
        assert compile_rule(rule, relations).evaluate(relations) == {(1,), (3,)}

    def test_constants_in_body_and_head(self):
        rule = Rule(Atom.of("t", "X", "fixed"), (Atom.of("e", 1, "X"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20), (1, 30)])}
        assert compile_rule(rule, relations).evaluate(relations) == {
            (10, "fixed"),
            (30, "fixed"),
        }

    def test_unbound_head_variable_produces_nothing(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1)])}
        plan = compile_rule(rule, relations)
        assert not plan.producible
        assert plan.evaluate(relations) == set()

    def test_missing_relation_is_empty(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("missing", "X"),))
        stats = EvaluationStats()
        assert compile_rule(rule).evaluate({}, stats=stats) == set()
        assert stats.lookups == 1

    def test_bound_variables_fill_initial_slots(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20)])}
        x = Variable("X")
        plan = compile_rule(rule, relations, bound=(x,))
        assert plan.evaluate(relations, bindings={x: 1}) == {(1, 10)}
        assert plan.evaluate(relations, bindings={x: 2}) == {(2, 20)}
        with pytest.raises(ValueError):
            plan.evaluate(relations)

    def test_bound_probe_is_restricted(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20)])}
        x = Variable("X")
        plan = compile_rule(rule, relations, bound=(x,))
        stats = EvaluationStats()
        plan.evaluate(relations, stats=stats, bindings={x: 1})
        assert stats.unrestricted_lookups == 0


class TestDeltaVariants:
    def test_matches_interpreted_delta_evaluation(self):
        relations = sample_relations()
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")),
        )
        delta = Relation("t", 2, [(1, 5), (5, 7)])
        interpreted = evaluate_rule_with_delta(rule, relations, "t", delta)
        variants = compile_delta_variants(compile_rule, [rule], {"t"})
        assert len(variants) == 1
        predicate, occurrence, plan = variants[0]
        assert predicate == "t"
        assert occurrence == 1
        assert plan.order[0] == occurrence  # the delta leads the join order
        compiled = plan.evaluate(relations, overrides={occurrence: delta})
        assert compiled == interpreted

    def test_one_variant_per_occurrence(self):
        # nonlinear rule: two recursive occurrences, two variants
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("t", "X", "Z"), Atom.of("t", "Z", "Y")),
        )
        variants = compile_delta_variants(compile_rule, [rule], {"t"})
        assert [(p, o) for p, o, _plan in variants] == [("t", 0), ("t", 1)]

    def test_nonlinear_union_over_occurrences_matches_interpreter(self):
        relations = {"t": Relation("t", 2, [(0, 1), (1, 2), (2, 3)])}
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("t", "X", "Z"), Atom.of("t", "Z", "Y")),
        )
        delta = Relation("t", 2, [(1, 2)])
        interpreted = evaluate_rule_with_delta(rule, relations, "t", delta)
        compiled = set()
        for _predicate, occurrence, plan in compile_delta_variants(compile_rule, [rule], {"t"}):
            compiled |= plan.evaluate(relations, overrides={occurrence: delta})
        assert compiled == interpreted


class TestCompiledEnginesAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 11, 23])
    def test_naive_equals_seminaive_on_generated_cases(self, seed):
        case = generate_case(seed)
        naive = naive_evaluate(case.program, case.database)
        semi = seminaive_evaluate(case.program, case.database)
        assert set(naive) == set(semi)
        for predicate in naive:
            assert naive[predicate].rows() == semi[predicate].rows(), predicate

    def test_plans_compiled_once_per_fixpoint(self):
        case = generate_case(0)  # chain family: 1 recursive + 1 exit rule
        stats = EvaluationStats()
        seminaive_evaluate(case.program, case.database, stats)
        # one base plan + one delta variant, regardless of iteration count
        assert stats.plans_compiled == 2
        assert stats.iterations > 2
