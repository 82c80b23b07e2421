"""Compiled rule plans must match the naive oracle exactly.

The reference is :mod:`repro.testing.oracle`: a backtracking join over plain
row sets that shares neither the planner nor :class:`Relation`'s indexes with
the plans it checks.  Every comparison runs with generated kernels on and off,
so both executors of a plan are held to it.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parse_atom, parse_rule
from repro.datalog.atoms import Atom
from repro.datalog.relation import Relation
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.engine import (
    EvaluationStats,
    compile_delta_variants,
    compile_rule,
    naive_evaluate,
    plan_order,
    seminaive_evaluate,
)
from repro.testing import FAMILIES, generate_case, oracle
from repro.testing.reference import step_machine
from repro.workloads import ALL_CANONICAL, edge_database, layered_dag

KERNEL_MODES = pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "interpreted"])

#: the seeds ``tests/test_differential.py`` runs: 84 across every family,
#: plus 16 more that land on the bounded family
DIFFERENTIAL_SEEDS = [
    *range(84),
    *[seed for seed in range(84, 84 + 20 * len(FAMILIES)) if FAMILIES[seed % len(FAMILIES)] == "bounded"][:16],
]


def sample_relations():
    database = edge_database(layered_dag(4, 3, 2, seed=11))
    relations = {r.name: r for r in database.relations()}
    relations["t"] = Relation("t", 2, [(0, 1), (1, 5), (2, 4), (5, 7)])
    return relations


def facts_of(relations):
    return {name: relation.rows() for name, relation in relations.items()}


def with_delta(rule, occurrence, facts, delta_rows):
    """``rule`` with body atom ``occurrence`` reading ``delta_rows``, for the oracle."""
    body = list(rule.body)
    body[occurrence] = Atom("delta", body[occurrence].args)
    return Rule(rule.head, tuple(body)), {**facts, "delta": set(delta_rows)}


@pytest.fixture
def relations():
    return {
        "a": Relation("a", 2, [(1, 2), (2, 3), (3, 4)]),
        "b": Relation("b", 2, [(4, 5), (2, 9)]),
        "p": Relation("p", 1, [(2,), (3,)]),
    }


def evaluate(rule, relations, **kwargs):
    return compile_rule(rule, relations, bound=tuple(kwargs.get("bindings") or ())).evaluate(relations, **kwargs)


#: rules whose probes cover every index shape: one bound column, several
#: (constants included, in and out of column order), all columns, and a
#: variable repeated within an atom
PROBE_SHAPES = [
    "q(X, Y, Z) :- a(X, Y), f(Y, Z, X).",
    "q(X, Y, Z) :- a(X, Y), f(X, Y, Z).",
    "q(X, Y, Z) :- a(X, Y), f(Z, X, Y).",
    "q(Y, Z) :- a(2, Y), f(Y, 1, Z).",
    "q(X, Z) :- f(X, X, Z), a(Z, X).",
    "q(X, Y) :- a(X, Y), a(Y, X), f(X, Y, X).",
    "q(X, W) :- f(X, Y, Z), f(Y, Z, W).",
]


def random_relations(seed):
    rng = random.Random(seed)
    return {
        "a": Relation("a", 2, {(rng.randrange(4), rng.randrange(4)) for _ in range(10)}),
        "f": Relation("f", 3, {(rng.randrange(4), rng.randrange(4), rng.randrange(4)) for _ in range(30)}),
    }


class TestCompiledRuleEquivalence:
    @KERNEL_MODES
    @pytest.mark.parametrize("text", PROBE_SHAPES)
    def test_probe_shapes_match_oracle(self, text, kernels):
        rule = parse_rule(text)
        x = Variable("X")
        with step_machine(not kernels):
            for seed in range(5):
                relations = random_relations(seed)
                facts = facts_of(relations)
                assert compile_rule(rule, relations).evaluate(relations) == oracle.apply_rule(rule, facts)
                if x in rule.variables():
                    plan = compile_rule(rule, relations, bound=(x,))
                    for value in range(4):
                        bindings = {x: value}
                        assert plan.evaluate(relations, bindings=bindings) == oracle.apply_rule(rule, facts, bindings)

    @KERNEL_MODES
    def test_matches_oracle_on_canonical_rules(self, kernels):
        relations = sample_relations()
        facts = facts_of(relations)
        with step_machine(not kernels):
            for name, factory in ALL_CANONICAL.items():
                program = factory()
                for rule in program.rules:
                    compiled = compile_rule(rule, relations).evaluate(relations)
                    assert compiled == oracle.apply_rule(rule, facts), f"{name}: {rule}"

    @KERNEL_MODES
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_every_rule_and_delta_variant_of_a_seed_matches_oracle(self, seed, kernels):
        """One join per rule and per delta variant, over the EDB plus the seed's model."""
        case = generate_case(seed)
        model = seminaive_evaluate(case.program, case.database)
        relations = {r.name: r for r in case.database.relations()}
        relations.update(model)
        facts = facts_of(relations)
        rules = case.program.rules
        with step_machine(not kernels):
            for rule in rules:
                compiled = compile_rule(rule, relations).evaluate(relations)
                assert compiled == oracle.apply_rule(rule, facts), rule
            variants = compile_delta_variants(compile_rule, rules, set(model), relations)
            assert variants or not any(rule.is_recursive() for rule in rules)
            for predicate, occurrence, plan in variants:
                delta_rows = sorted(model[predicate].rows(), key=repr)[::2]
                delta = Relation(predicate, model[predicate].arity, delta_rows)
                compiled = plan.evaluate(relations, overrides={occurrence: delta})
                renamed, delta_facts = with_delta(plan.rule, occurrence, facts, delta_rows)
                assert compiled == oracle.apply_rule(renamed, delta_facts), (plan.rule, occurrence)

    @KERNEL_MODES
    def test_a_body_too_long_for_a_kernel_runs_on_the_step_machine(self, kernels):
        # a generated kernel nests one loop per atom, and CPython allows 20
        length = 24
        body = tuple(Atom.of("a", f"X{i}", f"X{i + 1}") for i in range(length))
        rule = Rule(Atom.of("q", "X0", f"X{length}"), body)
        relations = {"a": Relation("a", 2, [(i, i + 1) for i in range(30)])}
        expected = oracle.apply_rule(rule, facts_of(relations))
        assert len(expected) == 30 - length + 1
        with step_machine(not kernels):
            plan = compile_rule(rule, relations)
            assert plan.evaluate(relations) == expected
            assert len(plan.join(relations)) == len(expected)

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


class TestSmallJoins:
    """One rule at a time over three small relations, checked by hand."""

    def test_single_atom(self, relations):
        assert evaluate(parse_rule("q(X, Y) :- a(X, Y)."), relations) == {(1, 2), (2, 3), (3, 4)}

    def test_join_two_atoms(self, relations):
        assert evaluate(parse_rule("reach(X, Y) :- a(X, Z), b(Z, Y)."), relations) == {(3, 5), (1, 9)}

    def test_bindings_restrict_results(self, relations):
        rule = parse_rule("reach(X, Y) :- a(X, Z), b(Z, Y).")
        assert evaluate(rule, relations, bindings={Variable("X"): 3}) == {(3, 5)}

    def test_constants_in_atoms(self, relations):
        assert evaluate(parse_rule("q(Z) :- a(1, Z)."), relations) == {(2,)}

    def test_missing_relation_gives_no_answers(self, relations):
        assert evaluate(parse_rule("q(X) :- ghost(X)."), relations) == set()

    def test_unsatisfiable_conjunction(self, relations):
        assert evaluate(parse_rule("q(X, Z) :- a(X, Z), p(X), b(X, Z)."), relations) == set()

    def test_head_constants(self, relations):
        assert evaluate(parse_rule("tagged(X, special) :- p(X)."), relations) == {(2, "special"), (3, "special")}

    def test_stats_count_restricted_lookups(self, relations):
        stats = EvaluationStats()
        rule = parse_rule("reach(X, Y) :- a(X, Z), b(Z, Y).")
        evaluate(rule, relations, bindings={Variable("X"): 1}, stats=stats)
        assert stats.lookups >= 2
        assert stats.unrestricted_lookups == 0

    def test_unbound_first_atom_is_unrestricted(self, relations):
        stats = EvaluationStats()
        evaluate(parse_rule("q(X, Y) :- a(X, Y)."), relations, stats=stats)
        assert stats.unrestricted_lookups == 1

    def test_delta_variant_restricts_one_occurrence(self, relations):
        rule = parse_rule("t(X, Y) :- a(X, Z), t(Z, Y).")
        full_t = Relation("t", 2, [(2, 9), (4, 5)])
        relations = {**relations, "t": full_t}
        [(_predicate, occurrence, plan)] = compile_delta_variants(compile_rule, [rule], {"t"})
        delta = Relation("t", 2, [(4, 5)])
        assert plan.evaluate(relations, overrides={occurrence: delta}) == {(3, 5)}
        assert plan.evaluate(relations, overrides={occurrence: full_t}) == {(3, 5), (1, 9)}

    def test_matches_brute_force_on_paper_string(self, relations):
        rule = parse_rule("t(X, Z0, Z1, Y) :- a(X, Z0), a(Z0, Z1), b(Z1, Y).")
        rows = {name: relation.rows() for name, relation in relations.items()}
        brute = {
            (x, z0, z1, y)
            for (x, z0), (z0_, z1), (z1_, y) in itertools.product(rows["a"], rows["a"], rows["b"])
            if z0 == z0_ and z1 == z1_
        }
        assert evaluate(rule, relations) == brute == {(2, 3, 4, 5)}


class TestPlanOrder:
    def test_bound_atoms_come_first(self, relations):
        atoms = [parse_atom("b(Z, Y)"), parse_atom("a(X, Z)")]
        order = plan_order(atoms, {Variable("X")}, relations)
        assert order[0] == 1  # a(X, Z) has a bound argument

    def test_order_is_a_permutation(self, relations):
        atoms = [parse_atom("a(X, Z)"), parse_atom("b(Z, Y)"), parse_atom("p(X)")]
        order = plan_order(atoms, set(), relations)
        assert sorted(order) == [0, 1, 2]

    def test_constants_count_as_bound(self, relations):
        atoms = [parse_atom("a(X, Z)"), parse_atom("b(4, Y)")]
        order = plan_order(atoms, set(), relations)
        assert order[0] == 1


class TestDeltaVariants:
    @KERNEL_MODES
    def test_matches_oracle_delta_evaluation(self, kernels):
        relations = sample_relations()
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")),
        )
        delta_rows = [(1, 5), (5, 7)]
        delta = Relation("t", 2, delta_rows)
        variants = compile_delta_variants(compile_rule, [rule], {"t"})
        assert len(variants) == 1
        predicate, occurrence, plan = variants[0]
        assert predicate == "t"
        assert occurrence == 1
        assert plan.order[0] == occurrence  # the delta leads the join order
        with step_machine(not kernels):
            compiled = plan.evaluate(relations, overrides={occurrence: delta})
        renamed, facts = with_delta(rule, occurrence, facts_of(relations), delta_rows)
        assert compiled == oracle.apply_rule(renamed, facts)

    def test_one_variant_per_occurrence(self):
        # nonlinear rule: two recursive occurrences, two variants
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("t", "X", "Z"), Atom.of("t", "Z", "Y")),
        )
        variants = compile_delta_variants(compile_rule, [rule], {"t"})
        assert [(p, o) for p, o, _plan in variants] == [("t", 0), ("t", 1)]

    @KERNEL_MODES
    def test_nonlinear_union_over_occurrences_matches_oracle(self, kernels):
        relations = {"t": Relation("t", 2, [(0, 1), (1, 2), (2, 3)])}
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("t", "X", "Z"), Atom.of("t", "Z", "Y")),
        )
        delta_rows = [(1, 2)]
        delta = Relation("t", 2, delta_rows)
        compiled = set()
        expected = set()
        with step_machine(not kernels):
            for _predicate, occurrence, plan in compile_delta_variants(compile_rule, [rule], {"t"}):
                compiled |= plan.evaluate(relations, overrides={occurrence: delta})
                expected |= oracle.apply_rule(*with_delta(rule, occurrence, facts_of(relations), delta_rows))
        assert compiled == expected == {(0, 2), (1, 3)}


class TestRandomisedAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=15),
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=15),
    )
    def test_two_atom_join_matches_oracle(self, a_rows, b_rows):
        relations = {"a": Relation("a", 2, a_rows), "b": Relation("b", 2, b_rows)}
        rule = parse_rule("q(X, Z, Y) :- a(X, Z), b(Z, Y).")
        for kernels in (True, False):
            with step_machine(not kernels):
                assert evaluate(rule, relations) == oracle.apply_rule(rule, facts_of(relations))


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
