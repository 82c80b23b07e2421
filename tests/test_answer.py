"""Tests for the query front door (:func:`repro.engine.query.answer`)."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import DatalogService, answer, explain, parse_program, plan_query
from repro.datalog import Database, EvaluationError, ParseError, QueryTimeout
from repro.engine import SelectionQuery, as_selection_query, evaluation_deadline, seminaive_query
from repro.testing import FAMILIES, generate_case, generate_cases
from repro.workloads import (
    bounded_guard_tc,
    canonical_two_sided,
    chain,
    edge_database,
    random_pairs,
    relations_database,
    same_generation,
    same_generation_database,
    transitive_closure,
)


@pytest.fixture
def tc_db() -> Database:
    return Database.from_dict({"a": [(i, i + 1) for i in range(6)], "b": [(6, 100)]})


class TestAutoRouting:
    def test_bounded_recursion_routes_to_unfolded(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(1, 2), (3, 4)]})
        result = answer(bounded_guard_tc(), database, "t(1, Y)?")
        assert result.strategy == "unfolded (auto)"
        assert result.answers == {(1, 2)}

    def test_one_sided_recursion_routes_to_schema(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?")
        assert result.strategy.startswith("one-sided")
        reference, _ = seminaive_query(transitive_closure(), tc_db, "t", {0: 0})
        assert result.answers == reference

    def test_counting_routes_on_two_sided_chain_shape(self):
        program = canonical_two_sided()
        database = Database.from_dict(
            {"a": [(0, 1), (1, 2)], "b": [(2, 3)], "c": [(3, 4), (4, 5)]}
        )
        result = answer(program, database, "t(0, Y)?")
        assert result.strategy == "counting (auto)"
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert result.answers == reference

    def test_magic_routes_when_counting_out_of_scope(self):
        program = canonical_two_sided()
        database = Database.from_dict(
            {"a": [(0, 1), (1, 2)], "b": [(2, 3)], "c": [(3, 4), (4, 5)]}
        )
        # column-1 selections are outside the counting implementation's scope
        result = answer(program, database, SelectionQuery.of("t", 2, {1: 4}))
        assert result.strategy == "magic-sets (auto)"
        reference, _ = seminaive_query(program, database, "t", {1: 4})
        assert result.answers == reference

    def test_unbound_query_falls_back_to_seminaive(self):
        program = same_generation()
        database = Database.from_dict({"p": [(1, 0), (2, 0)], "sg0": [(0, 0)]})
        result = answer(program, database, "sg(X, Y)?")
        assert result.strategy == "seminaive (auto)"
        reference, _ = seminaive_query(program, database, "sg")
        assert result.answers == reference

    def test_provenance_reports_the_rewrites(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?")
        assert result.provenance is not None
        names = [rewrite.pass_name for rewrite in result.provenance.rewrites]
        assert names == [
            "redundancy-removal",
            "boundedness-detection",
            "sidedness-classification",
            "bounded-unfolding",
        ]
        assert "sidedness-classification" in result.provenance.fired()

    def test_shared_provenance_cannot_be_edited_by_one_caller(self, tc_db):
        """The optimizer result is analysed once per program, so two answers
        publish the same provenance: it must be equal and immutable."""
        program = transitive_closure()
        first = answer(program, tc_db, "t(0, Y)?")
        second = answer(program, tc_db, "t(3, Y)?")
        assert first.provenance.rewrites == second.provenance.rewrites
        assert first.provenance.notes == second.provenance.notes
        before = first.provenance.describe()
        for attempt in (
            lambda: first.provenance.rewrites.append("mine"),
            lambda: first.provenance.notes.append("mine"),
            lambda: setattr(first.provenance, "rewrites", ()),
            lambda: setattr(first.provenance.rewrites[0], "detail", "mine"),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert second.provenance.describe() == before
        assert answer(program, tc_db, "t(5, Y)?").provenance.describe() == before

    def test_idb_exit_layer_gets_correct_answers(self):
        """The cross-product exit layer (Section 4): subsidiary IDB predicates
        must be materialized before the one-sided schema runs."""
        program = parse_program(
            """
            pair(X, Y) :- c(X), d(Y).
            t(X, Y) :- pair(X, Y).
            t(X, Y) :- a(X, W), t(W, Y).
            """
        )
        database = Database.from_dict({"c": [(1,)], "d": [(7,)], "a": [(0, 1)]})
        result = answer(program, database, "t(0, Y)?")
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert reference == {(0, 7)}
        assert result.answers == reference


class TestForcedStrategies:
    def test_forced_strategies_match_planner(self, tc_db):
        program = transitive_closure()
        query = SelectionQuery.of("t", 2, {0: 0})
        reference, _ = seminaive_query(program, tc_db, "t", {0: 0})
        for strategy in ("naive", "seminaive", "magic", "one-sided"):
            front = answer(program, tc_db, query, strategy=strategy)
            assert front.answers == reference, strategy
            assert front.fell_through == ()
            assert len(plan_query(program, query, strategy).rungs) == 1, strategy

    def test_forced_counting_runs_in_scope(self, tc_db):
        result = answer(transitive_closure(), tc_db, "t(0, Y)?", strategy="counting")
        reference, _ = seminaive_query(transitive_closure(), tc_db, "t", {0: 0})
        assert result.answers == reference

    def test_forced_counting_out_of_scope_raises(self, tc_db):
        with pytest.raises(EvaluationError):
            answer(transitive_closure(), tc_db, SelectionQuery.of("t", 2, {1: 3}), strategy="counting")

    def test_unknown_strategy_raises(self, tc_db):
        with pytest.raises(EvaluationError):
            answer(transitive_closure(), tc_db, "t(0, Y)?", strategy="sideways")

    def test_undefined_predicate_returns_empty(self, tc_db):
        result = answer(transitive_closure(), tc_db, "missing(0, Y)?")
        assert result.answers == set()


# ----------------------------------------------------------------------
# the ladder is a value: plan_query decides, answer executes, explain renders
# ----------------------------------------------------------------------
SEED_COUNT = 84
_BOUNDED = FAMILIES.index("bounded")
BOUNDED_EXTRA_SEEDS = [
    seed for seed in range(SEED_COUNT, SEED_COUNT + 20 * len(FAMILIES)) if seed % len(FAMILIES) == _BOUNDED
][:16]

#: one-sided by Theorem 3.1, but the forward schema cannot carry Y
REFUSED_PROGRAM = "t(X, Y) :- e(X, W), t(W, V), f(V).\nt(X, Y) :- t0(X, Y)."


def ladder_cases():
    """``(name, program, database, query)``: the differential seeds, the bounded
    extras, and the two fully bound selections that reach the bounded-sides rung."""
    for case in generate_cases(SEED_COUNT) + [generate_case(seed) for seed in BOUNDED_EXTRA_SEEDS]:
        yield case.name, case.program, case.database, case.query
    yield (
        "sg(13, 17)",
        same_generation(),
        same_generation_database(branching=3, depth=4),
        SelectionQuery.of("sg", 2, {0: 13, 1: 17}),
    )
    yield (
        "two-sided t(1, 4)",
        canonical_two_sided(),
        relations_database(
            a=random_pairs(25, 10, seed=51), b=random_pairs(10, 10, seed=52), c=random_pairs(25, 10, seed=53)
        ),
        SelectionQuery.of("t", 2, {0: 1, 1: 4}),
    )


class TestLadder:
    def test_rung_census_of_the_differential_seeds(self):
        """Which rung answers each seed — a planner change that moves a seed shows here."""
        census = Counter(
            answer(case.program, case.database, case.query).rung for case in generate_cases(SEED_COUNT)
        )
        assert census == {
            "one-sided-forward": 50,
            "one-sided-backward": 10,
            "unfolded": 12,
            "magic-sets": 7,
            "counting": 5,
        }  # and no seed lands on plain semi-naive

    def test_explain_renders_the_plan_answer_executes(self):
        """Same strategy string, and every join the run dispatched is one EXPLAIN showed.

        EXPLAIN lists every join the rung can run; which of them a run reaches
        depends on the data (a schema operator whose carry stays empty is never
        applied).  A fixpoint rung lists the plan collection the fixpoint runs —
        base rules plus one delta variant per recursive occurrence — so the rule
        and the occurrence its delta is forced onto agree; the rest of a join
        order is compiled against relations the run derives as it goes, and may
        differ where their sizes break the planner's ties.
        """

        def variant(plan):  # the rule, and the delta occurrence forced to the front (if any)
            first = plan.join_order[0] if plan.join_order else ""
            return plan.rule, first if first.startswith("delta ") else None

        problems = []
        rungs = Counter()
        for name, program, database, query in ladder_cases():
            executed = answer(program, database, query, profile=True)
            predicted = explain(program, query, database)
            rungs[executed.strategy] += 1
            if predicted.strategy != executed.strategy:
                problems.append(f"{name}: explain says {predicted.strategy}, answer ran {executed.strategy}")
            if executed.rung in ("magic-sets", "seminaive"):
                shown = {variant(plan) for plan in predicted.plans}
                ran = {variant(plan) for plan in executed.profile.plans}
            else:
                shown = {(plan.rule, plan.join_order, plan.dispatch) for plan in predicted.plans}
                ran = {(plan.rule, plan.join_order, plan.dispatch) for plan in executed.profile.plans}
            if not ran or not ran <= shown:
                problems.append(f"{name} ({executed.strategy}): ran {sorted(ran - shown)} unexplained")
        assert not problems, "\n".join(problems)
        assert rungs["one-sided-forward (bounded sides, auto)"] + rungs["one-sided-backward (bounded sides, auto)"] == 2

    def test_a_refusing_rung_is_recorded_not_hidden(self):
        program = parse_program(REFUSED_PROGRAM)
        database = Database.from_dict({"e": [(1, 2)], "f": [(3,)], "t0": [(2, 3)]})
        result = answer(program, database, "t(1, Y)?", profile=True)
        assert result.rung == "magic-sets"
        ((rung, error, message),) = result.fell_through
        assert (rung, error) == ("one-sided", "EvaluationError") and "cannot carry" in message
        assert result.profile.fell_through == [(rung, error, message)]
        assert "FELL THROUGH one-sided" in result.profile.render()
        # the refusal is the memoized analysis's, so EXPLAIN reports it without running
        predicted = explain(program, "t(1, Y)?", database)
        assert predicted.fell_through == result.profile.fell_through
        assert predicted.fallbacks and predicted.fallbacks[-1].startswith("seminaive (auto)")

    def test_a_rung_failing_on_the_data_falls_through_at_run_time(self):
        # counting is in scope for the program, but the reachable data is cyclic
        program = canonical_two_sided()
        database = Database.from_dict({"a": [(0, 1), (1, 0)], "b": [(1, 2)], "c": [(2, 3), (3, 2)]})
        result = answer(program, database, "t(0, Y)?", counting_depth=50)
        assert result.strategy == "magic-sets (auto)"
        assert [(rung, error) for rung, error, _ in result.fell_through] == [("counting", "EvaluationError")]
        reference, _ = seminaive_query(program, database, "t", {0: 0})
        assert result.answers == reference


    def test_the_plan_is_decided_once_per_query_shape(self, tc_db):
        """One plan serves every constant (it holds none), and racing cold readers agree."""
        import threading

        import repro.core.schema as schema_module
        import repro.engine.query as query_module
        import repro.optimize.passes as passes_module

        program = transitive_closure()
        forward = [SelectionQuery.of("t", 2, {0: constant}) for constant in range(6)]
        assert len({id(plan_query(program, query)) for query in forward}) == 1
        assert plan_query(program, SelectionQuery.of("t", 2, {1: 100})) is not plan_query(program, forward[0])
        expected = [answer(program, tc_db, query).answers for query in forward]
        for memo in (query_module._plan, schema_module._plan_or_refusal, passes_module._default_chain_result):
            memo.cache_clear()
        seen = []

        def reader():
            seen.append([answer(program, tc_db, query).answers for query in forward])

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert seen == [expected] * 8
        assert query_module._plan.cache_info().currsize == 1


class TestTimeoutIsNotAFallThrough:
    @pytest.fixture
    def entered(self, monkeypatch):
        """Names of the later rungs' entry points, as they are called."""
        import repro.baselines.counting
        import repro.baselines.magic
        import repro.engine.query

        calls = []
        for module, name in (
            (repro.baselines.counting, "counting_query"),
            (repro.baselines.magic, "magic_query"),
            (repro.engine.query, "seminaive_query"),
        ):
            def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("query", ["t(0, Y)?", "t(X, 300)?"])
    def test_expired_deadline_raises_from_the_first_rung(self, query, entered):
        database = edge_database(chain(300))
        with evaluation_deadline(time.perf_counter() - 1.0):
            with pytest.raises(QueryTimeout):
                answer(transitive_closure(), database, query)
        assert entered == []

    def test_service_timeout_on_an_unmaterialized_predicate(self, entered):
        database = edge_database(chain(3000))
        with DatalogService(transitive_closure(), database) as service:
            service._snapshot.views.pop("t")
            with pytest.raises(QueryTimeout):
                service.query("t(X, 3000)?", timeout=1e-4)
        assert entered == []


class TestQueryTextMemo:
    """A query text parses once; the arity check still runs per program and call."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Texts handed to ``parse_query``, with the text memo emptied first."""
        import repro.datalog.parser as parser_module
        import repro.engine.query as query_module

        query_module._parse_selection.cache_clear()
        calls = []
        real = parser_module.parse_query

        def spy(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(parser_module, "parse_query", spy)
        return calls

    def test_one_text_is_one_shared_selection(self, parses):
        program = transitive_closure()
        first = as_selection_query(program, "t(1, Y)?")
        assert as_selection_query(program, "t(1, Y)?") is first
        assert first == SelectionQuery.of("t", 2, {0: 1})
        assert parses == ["t(1, Y)?"]

    @pytest.mark.parametrize(
        "text, error",
        [("t(1, Y", ParseError), ("t(X, X)?", EvaluationError)],
    )
    def test_a_refused_text_raises_every_time_and_is_not_stored(self, parses, text, error):
        import repro.engine.query as query_module

        for _ in range(3):
            with pytest.raises(error):
                as_selection_query(transitive_closure(), text)
        assert parses == [text] * 3
        assert query_module._parse_selection.cache_info().currsize == 0

    def test_the_arity_check_is_per_program(self, parses):
        binary = transitive_closure()
        ternary = parse_program("t(X, Y, Z) :- a(X, Y, Z).")
        for _ in range(2):
            assert as_selection_query(binary, "t(1, Y)?").arity == 2
            with pytest.raises(EvaluationError, match="arity"):
                as_selection_query(ternary, "t(1, Y)?")
        assert parses == ["t(1, Y)?"]

    def test_a_warm_service_hit_does_not_parse(self, parses, tc_db):
        with DatalogService(transitive_closure(), tc_db) as service:
            cold = service.query("t(0, Y)?")
            assert parses == ["t(0, Y)?"] and not cold.cached
            warm = service.query("t(0, Y)?")
            assert warm.cached and warm.answers == cold.answers
            assert service.submit("t(0, Y)?").result(timeout=10).cached
            assert parses == ["t(0, Y)?"]

    def test_profiles_and_selection_arguments_are_unchanged(self, parses, tc_db):
        import repro.engine.query as query_module

        program = transitive_closure()
        selection = SelectionQuery.of("t", 2, {0: 0})
        expected = answer(program, tc_db, selection).answers
        with DatalogService(program, tc_db) as service:
            assert service.query(selection).answers == expected
            profiled = service.query("t(0, Y)?", profile=True)
            assert profiled.answers == expected
            assert profiled.profile.query == str(selection) == "t(0, C1)?"
            assert profiled.profile.cache == "hit"
        profiled = answer(program, tc_db, "t(0, Y)?", profile=True)
        assert profiled.answers == expected and profiled.profile.query == "t(0, C1)?"
        assert as_selection_query(program, selection) is selection
        assert parses == ["t(0, Y)?"]
        assert query_module._parse_selection.cache_info().currsize == 1
