"""EXPLAIN without executing: ``repro.explain`` plan-only profiles.

The contract under test: ``explain(program, query, database)`` renders the
``QueryPlan`` the ``auto`` front door executes — the strategy of its first
rung, that rung's compiled join plans with their predicted dispatch, the
remaining rungs as fallbacks, the optimizer rewrite provenance — and touches
no stored tuple while doing any of it.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import Database, QueryProfile, answer, explain, parse_program
from repro.optimize import optimize_program
from repro.testing.reference import step_machine

TC = """
t(X, Y) :- a(X, Z), t(Z, Y).
t(X, Y) :- b(X, Y).
"""

SG = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
"""


def tc_database():
    return Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})


def sg_database():
    return Database.from_dict(
        {"flat": [(3, 4)], "up": [(1, 3), (2, 3)], "down": [(4, 5)]}
    )


class TestExplain:
    def test_explain_is_plan_only(self):
        profile = explain(parse_program(TC), "t(1, Y)?", tc_database())
        assert isinstance(profile, QueryProfile)
        assert profile.outcome == "plan-only"
        assert profile.iterations == []
        assert profile.stats.as_dict()["lookups"] == 0
        assert profile.stats.as_dict()["tuples_examined"] == 0

    def test_explain_does_not_touch_the_database(self):
        database = tc_database()
        before = {
            relation.name: set(relation.rows()) for relation in database.relations()
        }
        explain(parse_program(TC), "t(1, Y)?", database)
        after = {
            relation.name: set(relation.rows()) for relation in database.relations()
        }
        assert after == before

    @pytest.mark.parametrize(
        ("program_text", "database_factory", "query"),
        [
            (TC, tc_database, "t(1, Y)?"),
            (TC, tc_database, "t(X, Y)?"),
            (SG, sg_database, "sg(1, Y)?"),
            (SG, sg_database, "sg(X, Y)?"),
        ],
    )
    def test_prediction_matches_what_answer_picks(
        self, program_text, database_factory, query
    ):
        program = parse_program(program_text)
        database = database_factory()
        predicted = explain(program, query, database).strategy
        actual = answer(program, database, query).strategy
        assert predicted == actual

    def test_plans_describe_join_order_and_dispatch(self):
        profile = explain(parse_program(TC), "t(1, Y)?", tc_database())
        assert profile.plans
        for plan in profile.plans:
            assert plan.dispatch in {"interpreted", "kernel"}
            assert all("[scan]" in s or "[probe" in s for s in plan.join_order)
        rendered = profile.render()
        assert "PLANS" in rendered
        assert "STRATEGY" in rendered
        assert "TIMING" not in rendered  # nothing ran, so nothing to time

    @pytest.mark.parametrize("kernels", [True, False])
    @pytest.mark.parametrize("query", ["t(1, Y)?", "t(X, 4)?"])
    def test_one_sided_explain_shows_the_plans_answer_executes(self, query, kernels):
        """Forward and backward: EXPLAIN renders the memoized schema's own joins, and
        EXPLAIN ANALYZE records those same plans with the same dispatch."""
        program = parse_program(TC)
        with step_machine(not kernels):
            predicted = explain(program, query, tc_database())
            executed = answer(program, tc_database(), query, profile=True).profile

        def plan_set(profile):
            return {(plan.rule, plan.join_order, plan.dispatch) for plan in profile.plans}

        assert predicted.strategy == executed.strategy
        assert predicted.strategy.startswith("one-sided-")
        assert plan_set(predicted) == plan_set(executed)
        assert {plan.dispatch for plan in executed.plans} == {"kernel" if kernels else "interpreted"}
        assert all(plan.rule.startswith("t.") for plan in predicted.plans)  # not the semi-naive strata
        assert predicted.counters["carry_arity"] == executed.stats.extra["carry_arity"] == 1
        # every join is led by the run's selection, and f / g by the round's carry —
        # rendered as the evaluator's inputs with their arity, not as stored relations
        for plan in predicted.plans:
            assert plan.join_order[0] == "input t.selection/1[scan]"
        carried = [plan for plan in predicted.plans if "t.carry" in plan.rule]
        assert carried and all(plan.join_order[1] == "input t.carry/1[scan]" for plan in carried)
        assert "input t.carry/1[scan]" in predicted.render()

    def test_explain_follows_answer_past_an_inapplicable_schema(self):
        # one-sided by Theorem 3.1, but the forward schema cannot carry Y: answer()
        # falls through to magic, and EXPLAIN renders that same plan
        program = parse_program("t(X, Y) :- e(X, W), t(W, V), f(V).\nt(X, Y) :- t0(X, Y).")
        database = Database.from_dict({"e": [(1, 2)], "f": [(3,)], "t0": [(2, 3)]})
        assert optimize_program(program, "t").one_sided
        predicted = explain(program, "t(1, Y)?", database)
        assert predicted.strategy == answer(program, database, "t(1, Y)?").strategy == "magic-sets (auto)"
        assert [rung for rung, _error, _message in predicted.fell_through] == ["one-sided"]

    def test_rewrite_provenance_is_reported(self):
        profile = explain(parse_program(TC), "t(1, Y)?", tc_database())
        assert profile.rewrites
        assert any("sidedness" in line for line in profile.rewrites)

    def test_explain_works_without_a_database(self):
        profile = explain(parse_program(TC), "t(1, Y)?")
        assert profile.outcome == "plan-only"
        assert profile.plans  # join orders fall back to the written order

    def test_explain_of_an_undefined_predicate_still_explains(self):
        # the optimizer cannot run (the predicate has no rules), but explain
        # renders the one lookup answer() makes instead of raising
        profile = explain(parse_program(TC), "nope(1, Y)?", tc_database())
        assert profile.outcome == "plan-only"
        assert profile.strategy == "edb-lookup"
        assert profile.plans == [] and profile.fallbacks == []

    def test_profile_serializes_for_debug_queries(self):
        profile = explain(parse_program(SG), "sg(1, Y)?", sg_database())
        payload = json.loads(json.dumps(profile.as_dict(), default=str))
        assert payload["outcome"] == "plan-only"
        assert payload["plans"]

    def test_explain_is_exported_at_top_level(self):
        assert "explain" in repro.__all__
        assert repro.explain is explain


# ----------------------------------------------------------------------
# EXPLAIN is the plan: the dispatch a run records, read from the same call
# ----------------------------------------------------------------------
def _chain_program(length):
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(length))
    return parse_program(f"q(X0, X{length}) :- {body}.")


def _chain_database():
    return Database.from_dict({"e": [(i, i + 1) for i in range(30)] + [(i, i + 2) for i in range(0, 30, 3)]})


#: (program, database, query) → answers and nonzero EvaluationStats counters, as
#: the step machine counted them when a missing body relation or a body longer
#: than one generated function could nest still ran there (``plans_compiled`` is
#: 0: ``explain`` compiled and kept on the program the very plans ``answer`` runs)
PINNED = [
    (
        "q(X) :- t(X, Y), m(Y).", {"t": [(1, 2), (2, 3), (3, 4)]}, "q(X)?", "seminaive (auto)", set(),
        {"lookups": 1, "iterations": 1},
    ),
    (
        "q(X) :- t(X, Y), m(Y).", {"t": [(1, 2), (2, 3), (3, 4)]}, "q(1)?", "magic-sets (auto)", set(),
        {"lookups": 1, "iterations": 1, "magic_rules": 1},
    ),
    (
        # the missing relation is reached after a probe: that lookup counts per row
        "p(Y) :- t(1, Y), m(Y).", {"t": [(1, 2), (1, 3), (2, 4)]}, "p(Y)?", "seminaive (auto)", set(),
        {"tuples_examined": 2, "lookups": 2, "iterations": 1},
    ),
    (
        25, None, "q(X, Y)?", "seminaive (auto)",
        {(x, y) for x in range(6) for y in range(25 + x, 31)},
        {"tuples_examined": 19466, "tuples_produced": 42, "lookups": 18443, "unrestricted_lookups": 1,
         "iterations": 1},
    ),
    (
        25, None, "q(0, Y)?", "magic-sets (auto)", {(0, y) for y in range(25, 31)},
        {"tuples_examined": 4497, "tuples_produced": 12, "lookups": 3906, "unrestricted_lookups": 1,
         "iterations": 1, "magic_rules": 1},
    ),
]


class TestExplainIsThePlan:
    @pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "step-machine"])
    @pytest.mark.parametrize(
        ("program", "facts", "query", "strategy", "answers", "counters"),
        PINNED,
        ids=["missing-unbound", "missing-magic", "missing-after-a-probe", "chain25", "chain25-magic"],
    )
    def test_explain_and_analyze_name_the_same_dispatch_per_plan(
        self, program, facts, query, strategy, answers, counters, kernels
    ):
        program = _chain_program(program) if isinstance(program, int) else parse_program(program)
        database = _chain_database() if facts is None else Database.from_dict(facts)
        with step_machine(not kernels):
            predicted = explain(program, query, database)
            executed = answer(program, database, query, profile=True)

        def dispatches(profile):
            return {plan.rule: (plan.dispatch, plan.detail) for plan in profile.plans}

        assert predicted.strategy == executed.strategy == strategy
        assert dispatches(predicted) == dispatches(executed.profile)
        assert {plan.dispatch for plan in executed.profile.plans} == {"kernel" if kernels else "interpreted"}
        missing = "m" in program.edb_predicates()
        assert {plan.detail for plan in executed.profile.plans} == {"missing body relation m" if missing else ""}
        assert executed.answers == answers
        totals = executed.stats.as_dict()
        totals.pop("elapsed_seconds")
        assert {key: value for key, value in totals.items() if value} == counters

    @pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "step-machine"])
    def test_without_a_database_no_relation_is_named_missing(self, kernels):
        with step_machine(not kernels):
            predicted = explain(parse_program("q(X) :- t(X, Y), m(Y)."), "q(X)?")
        dispatch = "kernel" if kernels else "interpreted"
        assert [(plan.dispatch, plan.detail) for plan in predicted.plans] == [(dispatch, "")]
