"""EXPLAIN ANALYZE profiles and the flight recorder.

Covers ``repro.obs.profile`` at every layer it is surfaced:
``answer(..., profile=True)`` on the engine front door,
``DatalogService.query(..., profile=True)`` (and the one record of each kind
an unprofiled served query leaves: its latency observation and, when slow,
one ``slow_query`` span, but no profile), and the :class:`FlightRecorder`
ring behind ``/debug/queries``.  The acceptance criterion throughout is
agreement with the pinned instrumentation: a profile's stats are the *same*
totals the result reports.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Database,
    DatalogService,
    FlightRecorder,
    FlushPolicy,
    MetricsRegistry,
    QueryProfile,
    QueryTimeout,
    Tracer,
    answer,
    parse_program,
)
from repro.engine.query import as_selection_query
from repro.obs.profile import ProfileRecorder
from repro.testing.reference import step_machine

TC = """
t(X, Y) :- a(X, Z), t(Z, Y).
t(X, Y) :- b(X, Y).
"""


def tc_program():
    return parse_program(TC)


def chain_database(length=60):
    return Database.from_dict(
        {"a": [(i, i + 1) for i in range(length)], "b": [(length, length + 1)]}
    )


def manual_flush_policy():
    return FlushPolicy(max_batch=1_000_000, max_delay_seconds=3600.0)


# ----------------------------------------------------------------------
# answer(..., profile=True): the engine front door
# ----------------------------------------------------------------------
class TestAnswerProfile:
    def test_profile_off_by_default(self):
        result = answer(tc_program(), chain_database(), "t(1, Y)?")
        assert result.profile is None

    def test_profile_does_not_change_answers(self):
        plain = answer(tc_program(), chain_database(), "t(1, Y)?")
        profiled = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        assert profiled.answers == plain.answers
        assert profiled.strategy == plain.strategy

    def test_profile_stats_are_the_result_stats(self):
        result = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        assert profile.outcome == "ok"
        assert profile.strategy == result.strategy
        # the profile carries the evaluation's own stats, not a copy that
        # could drift — that is the acceptance criterion
        assert profile.stats is result.stats
        assert profile.execution_seconds > 0

    def test_trace_id_is_caller_controllable(self):
        result = answer(
            tc_program(), chain_database(), "t(1, Y)?", profile=True,
            trace_id="trace-under-test",
        )
        assert result.profile.trace_id == "trace-under-test"

    def test_default_trace_ids_are_fresh(self):
        first = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        second = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        assert first.profile.trace_id != second.profile.trace_id

    def test_seminaive_profile_records_plans_and_iterations(self):
        result = answer(
            tc_program(), chain_database(), "t(X, Y)?",
            strategy="seminaive", profile=True,
        )
        profile = result.profile
        assert profile.plans, "semi-naive evaluation must record compiled plans"
        assert {plan.dispatch for plan in profile.plans} <= {"interpreted", "kernel"}
        for plan in profile.plans:
            assert plan.join_order  # every body atom annotated scan/probe
            assert all("[scan]" in s or "[probe" in s for s in plan.join_order)
        assert profile.iterations, "the fixpoint loop must sample iterations"
        assert all(sample.delta_tuples >= 0 for sample in profile.iterations)
        assert profile.counters["strata_entered"] >= 1
        assert profile.counters["iterations_sampled"] == len(profile.iterations)

    @pytest.mark.parametrize("kernels", [True, False])
    def test_one_sided_profile_records_the_schema_joins(self, kernels):
        with step_machine(not kernels):
            result = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        assert result.strategy == "one-sided-forward (auto)"
        plans = {plan.rule.split("(")[0]: plan for plan in result.profile.plans}
        assert {plan.dispatch for plan in plans.values()} == {"kernel" if kernels else "interpreted"}
        # depth-0 exits, the initial push, then one step per carry round and one
        # exit join over everything reached
        assert set(plans) == {"t.exit", "t.init", "t.forward"}
        assert plans["t.init"].applications == 1
        assert plans["t.forward"].applications == result.stats.iterations == 59
        assert result.profile.stats is result.stats

    @pytest.mark.parametrize("kernels", [True, False])
    def test_one_sided_dispatches_once_per_carry_round_not_per_carry_row(self, kernels):
        """A complete binary tree of depth 7 from the root: 254 nodes reached in 7
        carry rounds.  Figure 9's ``f`` and ``g`` are one join per round, so the
        dispatch count follows the rounds, not the reach (it was ~2 x reach)."""
        from repro.core import compile_schema
        from repro.workloads import uniform_tree

        edges = list(uniform_tree(2, 7))
        database = Database.from_dict({"a": edges, "b": edges})
        with step_machine(not kernels):
            result = answer(tc_program(), database, "t(0, Y)?", profile=True)
        assert len(result.answers) == 254
        rounds = result.stats.iterations
        assert rounds == 7
        schema = compile_schema(result.provenance.optimized, "t", 2, (0,))
        joins = schema.compiled_plans()
        dispatches = sum(plan.applications for plan in result.profile.plans)
        assert rounds <= dispatches <= rounds * len(joins) + 3
        assert dispatches < 20  # nowhere near the 254 rows the carry passed through
        # the profile shows the memoized plans themselves, inputs labelled with their arity
        assert [plan.rule for plan in result.profile.plans] == [str(join.rule) for join in joins]
        forward = result.profile.plans[2]
        assert forward.applications == rounds
        assert forward.join_order == (
            "input t.selection/1[scan]",
            f"input t.carry/{schema.carry_arity}[scan]",
            "a[probe 0]",
        )

    def test_rewrites_come_from_the_optimizer_provenance(self):
        result = answer(tc_program(), chain_database(), "t(1, Y)?", profile=True)
        assert result.provenance is not None
        assert result.profile.rewrites == [
            str(rewrite) for rewrite in result.provenance.rewrites
        ]

    def test_render_and_as_dict_round_trip(self):
        result = answer(
            tc_program(), chain_database(), "t(X, Y)?",
            strategy="seminaive", profile=True, trace_id="render-test",
        )
        text = result.profile.render()
        for section in ("QUERY", "TRACE", "STRATEGY", "TIMING", "PLANS", "STATS"):
            assert section in text
        assert "render-test" in text
        payload = json.loads(json.dumps(result.profile.as_dict(), default=str))
        assert payload["trace_id"] == "render-test"
        assert payload["outcome"] == "ok"
        assert payload["stats"]["lookups"] == result.stats.lookups
        assert len(payload["plans"]) == len(result.profile.plans)


# ----------------------------------------------------------------------
# the recorder's caps (a pathological query cannot grow a profile forever)
# ----------------------------------------------------------------------
class TestRecorderCaps:
    def test_plans_are_capped_and_drops_counted(self):
        recorder = ProfileRecorder("q", max_plans=2)

        class FakeStep:
            predicate = "p"
            probe_columns = ()

        class FakePlan:
            rule = "p(X) :- q(X)."
            steps = (FakeStep(),)

        plans = [FakePlan() for _ in range(5)]
        for plan in plans:
            recorder.record_dispatch(plan, "kernel")
        profile = recorder.build(strategy="test")
        assert len(profile.plans) == 2
        assert profile.counters["plans_dropped"] == 3

    def test_repeat_applications_dedupe_instead_of_growing(self):
        recorder = ProfileRecorder("q", max_plans=2)

        class FakeStep:
            predicate = "p"
            probe_columns = (0,)

        class FakePlan:
            rule = "p(X) :- q(X)."
            steps = (FakeStep(),)

        plan = FakePlan()
        for _ in range(10):
            recorder.record_dispatch(plan, "kernel")
        profile = recorder.build(strategy="test")
        assert len(profile.plans) == 1
        assert profile.plans[0].applications == 10
        assert "plans_dropped" not in profile.counters

    def test_iterations_are_capped_and_drops_counted(self):
        recorder = ProfileRecorder("q", max_iterations=3)
        for iteration in range(10):
            recorder.record_iteration(0, iteration, 5, 0.001)
        profile = recorder.build(strategy="test")
        assert len(profile.iterations) == 3
        assert profile.counters["iterations_dropped"] == 7


# ----------------------------------------------------------------------
# the flight recorder ring
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_ring_is_bounded_but_the_lifetime_counter_is_not(self):
        flight = FlightRecorder(3)
        for index in range(5):
            flight.record(QueryProfile(query=f"q{index}?", trace_id=f"t{index}"))
        assert len(flight) == 3
        assert flight.profiles_recorded == 5
        assert [p.trace_id for p in flight.profiles()] == ["t2", "t3", "t4"]

    def test_as_dict_is_the_debug_queries_payload(self):
        flight = FlightRecorder(2)
        flight.record(QueryProfile(query="q?", trace_id="t1"))
        payload = json.loads(json.dumps(flight.as_dict(), default=str))
        assert set(payload) == {"recent_profiles", "profiles_recorded", "capacity"}
        assert payload["capacity"] == 2
        assert payload["profiles_recorded"] == 1
        assert payload["recent_profiles"][0]["trace_id"] == "t1"


# ----------------------------------------------------------------------
# the service layer: profile=True, and nothing without it
# ----------------------------------------------------------------------
class TestServiceProfile:
    @pytest.fixture
    def service(self):
        with DatalogService(
            TC,
            chain_database(),
            flush_policy=manual_flush_policy(),
            metrics=MetricsRegistry(),
            tracer=Tracer(),
        ) as svc:
            yield svc

    def test_query_profile_matches_the_pinned_result_stats(self, service):
        result = service.query("t(1, Y)?", profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.outcome == "ok"
        assert profile.cache == "miss"
        assert profile.epoch == service.epoch
        assert profile.stats is result.result.stats
        assert not profile.trace_id.startswith("q-")  # a fresh new_trace_id()
        # the profile landed in the flight recorder too
        assert [p.trace_id for p in service.flight.profiles()] == [profile.trace_id]

    def test_cache_hit_profile_reports_the_hit(self, service):
        service.query("t(1, Y)?")
        result = service.query("t(1, Y)?", profile=True)
        profile = result.profile
        assert result.cached
        assert profile.cache == "hit"
        assert profile.strategy.startswith("epoch-cache@")
        assert profile.plans == []  # nothing evaluated

    def test_unprofiled_queries_record_nothing(self, service):
        service.query("t(1, Y)?")
        service.query("t(1, Y)?")
        assert service.query("t(1, Y)?").profile is None
        assert service.flight.profiles() == []
        assert service.flight.profiles_recorded == 0

    def test_an_unprofiled_slow_query_leaves_one_span_and_no_profile(self):
        with DatalogService(
            TC,
            chain_database(),
            flush_policy=manual_flush_policy(),
            tracer=Tracer(slow_threshold_seconds=0.0),
        ) as svc:
            result = svc.query("t(1, Y)?")  # threshold 0: everything is "slow"
            assert result.profile is None
            assert svc.flight.profiles() == []
            assert svc.flight.profiles_recorded == 0
            (span,) = svc.tracer.slow_spans()
            assert span.name == "slow_query"
            assert span.attributes == {
                "predicate": "t",
                "outcome": "snapshot_lookup",
                "epoch": result.epoch,
                "strategy": result.strategy,
                "cache": "miss",
            }

    def test_admission_timeouts_are_counted_and_record_no_profile(self, service):
        with pytest.raises(QueryTimeout):
            service.query("t(1, Y)?", timeout=0.0)
        assert service.robustness.query_timeouts == 1
        histogram = service.metrics.get("repro_service_query_seconds")
        assert histogram.labels("timeout").count == 1
        assert service.flight.profiles() == []
        assert service.flight.profiles_recorded == 0

    def test_only_profile_true_builds_a_recorder(self, monkeypatch):
        built = []

        class SpyRecorder(ProfileRecorder):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("repro.service.service.ProfileRecorder", SpyRecorder)
        with DatalogService(
            TC,
            chain_database(),
            flush_policy=manual_flush_policy(),
            tracer=Tracer(slow_threshold_seconds=0.0),
        ) as svc:
            svc.query("t(1, Y)?")  # a miss, and slow
            svc.query("t(1, Y)?")  # a hit, and slow
            svc.submit("t(2, Y)?").result(timeout=10.0)
            with pytest.raises(QueryTimeout):
                svc.query("t(3, Y)?", timeout=0.0)
            with pytest.raises(QueryTimeout):
                svc.submit("t(3, Y)?", timeout=0.0).result(timeout=10.0)
            assert built == []
            assert svc.flight.profiles_recorded == 0
            svc.submit("t(4, Y)?", profile=True).result(timeout=10.0)
            assert built == ["t(4, C1)?"]
            assert svc.flight.profiles_recorded == 1

    def test_debug_queries_entries_carry_no_sampling_keys(self, service):
        service.query("t(1, Y)?", profile=True)
        (entry,) = service.flight.as_dict()["recent_profiles"]
        assert "sampled" not in entry and "forced" not in entry
        assert entry["cache"] == "miss"

    def test_slow_query_span_names_the_epoch_the_query_read(self):
        with DatalogService(
            TC,
            chain_database(),
            flush_policy=manual_flush_policy(),
            tracer=Tracer(slow_threshold_seconds=0.0),
        ) as svc:
            held = svc.snapshot()
            svc.insert("b", [(100, 101)])
            svc.barrier()
            assert svc.epoch != held.epoch
            selection = as_selection_query(svc.session.program, "t(1, Y)?")
            svc._answer(held, selection)
            with pytest.raises(QueryTimeout):
                svc._answer(held, selection, deadline=0.0)
            spans = [span for span in svc.tracer.slow_spans() if span.name == "slow_query"]
            assert [span.attributes["outcome"] for span in spans] == ["snapshot_lookup", "timeout"]
            assert [span.attributes["epoch"] for span in spans] == [held.epoch, held.epoch]

    def test_statusz_counts_agree_with_the_flight_recorder(self, service):
        service.query("t(1, Y)?", profile=True)
        report = service._status_report()
        assert report["queries"]["profiles_recorded"] == 1
        assert set(report["queries"]) == {"profiles_recorded", "flight_capacity"}
        assert report["queries"]["flight_capacity"] == service.flight.capacity
