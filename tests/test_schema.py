"""Tests for the general Figure 9 schema (:mod:`repro.core.schema`)."""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import answer, parse_program
from repro.core import BACKWARD, FORWARD, OneSidedSchema, compile_schema, one_sided_query
from repro.core import schema as schema_module
from repro.core.algorithms import aho_ullman_selection, henschen_naqvi_selection
from repro.datalog import (
    Database,
    EvaluationError,
    NotOneSidedError,
    Program,
    ProgramError,
    QueryTimeout,
    ReproError,
)
from repro.engine import EvaluationStats, SelectionQuery, seminaive_query
from repro.engine.instrumentation import evaluation_deadline, query_trace
from repro.obs.profile import ProfileRecorder
from repro.optimize import optimize_program
from repro.testing import generate_case
from repro.testing.reference import step_machine
from repro.workloads import (
    canonical_two_sided,
    edge_database,
    example_3_4,
    example_3_5,
    permissions_database,
    random_graph,
    random_pairs,
    relations_database,
    same_generation_distinct_parents,
    tc_with_permissions,
    transitive_closure,
)


class TestCompilation:
    def test_backward_direction_for_invariant_selection(self, tc_program):
        query = SelectionQuery.of("t", 2, {1: 5})
        schema = OneSidedSchema(tc_program, "t", query)
        assert schema.plan.direction == BACKWARD
        assert schema.plan.invariant_positions == (1,)
        assert schema.plan.carry_arity == 1

    def test_forward_direction_for_linking_selection(self, tc_program):
        query = SelectionQuery.of("t", 2, {0: 5})
        schema = OneSidedSchema(tc_program, "t", query)
        assert schema.plan.direction == FORWARD
        assert schema.plan.carry_arity < 2 + 1  # arity-reduced

    def test_describe_mentions_direction_and_arity(self, tc_program):
        query = SelectionQuery.of("t", 2, {1: 5})
        plan = OneSidedSchema(tc_program, "t", query).plan
        assert "backward" in plan.describe()
        assert "carry arity=1" in plan.describe()

    def test_rejects_many_sided_recursions_by_default(self):
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(NotOneSidedError):
            OneSidedSchema(canonical_two_sided(), "t", query)

    def test_require_one_sided_false_allows_many_sided(self):
        query = SelectionQuery.of("t", 2, {0: 1})
        schema = OneSidedSchema(canonical_two_sided(), "t", query, require_one_sided=False)
        assert schema.plan.direction == FORWARD

    def test_rejects_untrackable_output_column(self):
        """Example 3.5's head variable Y never touches the nonrecursive body, so the
        forward schema cannot carry its value and must refuse rather than answer wrongly."""
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(EvaluationError):
            OneSidedSchema(example_3_5(), "t", query, require_one_sided=False)

    def test_query_predicate_must_match(self, tc_program):
        query = SelectionQuery.of("s", 2, {0: 1})
        with pytest.raises(EvaluationError):
            OneSidedSchema(tc_program, "t", query)


class TestCanonicalOneSided:
    """The compiled schema agrees with Figures 7/8 and with semi-naive."""

    def test_backward_matches_figure_7(self, chain_db, tc_program):
        query = SelectionQuery.of("t", 2, {1: 100})
        result = one_sided_query(tc_program, chain_db, query)
        expected, _ = aho_ullman_selection(chain_db, 100)
        assert {row[0] for row in result.answers} == expected

    def test_forward_matches_figure_8(self, chain_db, tc_program):
        query = SelectionQuery.of("t", 2, {0: 0})
        result = one_sided_query(tc_program, chain_db, query)
        expected, _ = henschen_naqvi_selection(chain_db, 0)
        assert {row[1] for row in result.answers} == expected

    def test_unconstrained_query_computes_whole_relation(self, tc_program, small_graph_db):
        query = SelectionQuery.of("t", 2, {})
        result = one_sided_query(tc_program, small_graph_db, query)
        reference, _ = seminaive_query(tc_program, small_graph_db, "t")
        assert result.answers == reference

    def test_cyclic_data_terminates(self, tc_program, cyclic_db):
        for column in (0, 1):
            query = SelectionQuery.of("t", 2, {column: 0})
            result = one_sided_query(tc_program, cyclic_db, query)
            reference, _ = seminaive_query(tc_program, cyclic_db, "t", {column: 0})
            assert result.answers == reference

    def test_carry_arity_is_reported(self, tc_program, chain_db):
        result = one_sided_query(tc_program, chain_db, SelectionQuery.of("t", 2, {0: 0}))
        assert result.stats.extra["carry_arity"] == 1

    def test_forward_selection_restricts_lookups(self, tc_program):
        database = edge_database([(i, i + 1) for i in range(50)] + [(100, 101)])
        result = one_sided_query(tc_program, database, SelectionQuery.of("t", 2, {0: 100}))
        assert result.answers == {(100, 101)}
        # only the edges reachable from 100 are ever touched
        assert result.stats.tuples_examined <= 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0, 1]), st.integers(0, 9))
    def test_matches_seminaive_property(self, seed, column, constant):
        database = edge_database(random_pairs(25, 10, seed=seed))
        program = transitive_closure()
        query = SelectionQuery.of("t", 2, {column: constant})
        result = one_sided_query(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {column: constant})
        assert result.answers == reference


class TestOtherOneSidedRecursions:
    def test_permissions_recursion_both_columns(self, rng):
        program = tc_with_permissions()
        database = permissions_database(random_graph(10, 20, seed=5), seed=5)
        for column in (0, 1):
            constant = rng.randrange(10)
            query = SelectionQuery.of("t", 2, {column: constant})
            result = one_sided_query(program, database, query)
            reference, _ = seminaive_query(program, database, "t", {column: constant})
            assert result.answers == reference

    def test_permissions_carry_is_not_arity_reduced(self):
        """Example 4.1: the permission predicate ties both columns together."""
        program = tc_with_permissions()
        query = SelectionQuery.of("t", 2, {0: 1})
        plan = OneSidedSchema(program, "t", query).plan
        assert plan.carry_arity == 2  # no reduction, unlike the canonical case

    def test_example_3_4_all_columns(self, rng):
        program = example_3_4()
        database = relations_database(
            e=random_pairs(20, 8, seed=11),
            d=[(value,) for value in range(5)],
            t0=[(rng.randrange(8), rng.randrange(8), rng.randrange(8)) for _ in range(10)],
        )
        for column in (0, 1, 2):
            constant = rng.randrange(8)
            query = SelectionQuery.of("t", 3, {column: constant})
            result = one_sided_query(program, database, query)
            reference, _ = seminaive_query(program, database, "t", {column: constant})
            assert result.answers == reference

    def test_example_3_4_unrestricted_lookup_on_d(self):
        """Section 4: the disconnected d(Z) forces an unrestricted lookup (Property 3 exception)."""
        program = example_3_4()
        database = relations_database(
            e=[(1, 2), (2, 3)],
            d=[(7,), (8,)],
            t0=[(1, 1, 7)],
        )
        query = SelectionQuery.of("t", 3, {0: 1})
        result = one_sided_query(program, database, query)
        assert result.stats.unrestricted_lookups > 0

    def test_multiple_exit_rules(self):
        from repro.datalog import parse_program

        program = parse_program(
            """
            t(X, Y) :- a(X, Z), t(Z, Y).
            t(X, Y) :- b(X, Y).
            t(X, Y) :- seed(X, Y).
            """
        )
        database = relations_database(a=[(1, 2), (2, 3)], b=[(3, 4)], seed=[(3, 9)])
        query = SelectionQuery.of("t", 2, {0: 1})
        result = one_sided_query(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert result.answers == reference == {(1, 4), (1, 9)}


class TestManySidedWithOverride:
    """Correctness is retained on many-sided recursions, but the paper's properties are lost."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_canonical_two_sided_forward_is_correct(self, seed):
        rng = random.Random(seed)
        database = relations_database(
            a=random_pairs(15, 8, seed=seed),
            b=random_pairs(6, 8, seed=seed + 1),
            c=random_pairs(15, 8, seed=seed + 2),
        )
        constant = rng.randrange(8)
        query = SelectionQuery.of("t", 2, {0: constant})
        result = one_sided_query(canonical_two_sided(), database, query, require_one_sided=False)
        reference, _ = seminaive_query(canonical_two_sided(), database, "t", {0: constant})
        assert result.answers == reference

    def test_two_sided_state_is_wider_than_one_sided(self):
        database = relations_database(
            a=random_pairs(20, 8, seed=1),
            b=random_pairs(8, 8, seed=2),
            c=random_pairs(20, 8, seed=3),
        )
        two_sided = one_sided_query(
            canonical_two_sided(), database, SelectionQuery.of("t", 2, {0: 1}), require_one_sided=False
        )
        one_sided = one_sided_query(
            transitive_closure(), database, SelectionQuery.of("t", 2, {0: 1})
        )
        assert two_sided.stats.extra["carry_arity"] > one_sided.stats.extra["carry_arity"]

    def test_distinct_parent_same_generation_is_correct(self):
        database = relations_database(
            up=random_pairs(15, 8, seed=4),
            down=random_pairs(15, 8, seed=5),
            flat=random_pairs(8, 8, seed=6),
        )
        query = SelectionQuery.of("sg", 2, {0: 1})
        result = one_sided_query(
            same_generation_distinct_parents(), database, query, require_one_sided=False
        )
        reference, _ = seminaive_query(same_generation_distinct_parents(), database, "sg", {0: 1})
        assert result.answers == reference


# ----------------------------------------------------------------------
# the compiled form: one executor, two dispatches, identical accounting
# ----------------------------------------------------------------------
def _totals(stats):
    totals = stats.as_dict()
    totals.pop("elapsed_seconds", None)
    # what a call compiled: the second run reuses the subsidiary fixpoint's kept plans
    totals.pop("plans_compiled", None)
    return totals


def _applications(profile):
    """Each plan an EXPLAIN ANALYZE profile lists, with how often it ran."""
    return [(plan.rule, plan.applications) for plan in profile.plans]


def _both_executors(program, database, query):
    """``answer(profile=True)`` under the generated run and on the step machine
    (each under a deadline, as in :func:`_both_runs`)."""
    results = []
    for kernels in (True, False):
        with step_machine(not kernels), evaluation_deadline(time.perf_counter() + 1.0):
            results.append(answer(program, database, query, profile=True))
    return results


def _both_runs(schema, database):
    """``schema.run`` with a profile armed, generated and join-per-round:
    ``[(result, applications)]`` in that order.  A carry that lost its ``− seen``
    never empties on cyclic data; the deadline turns that into a failure."""
    runs = []
    for kernels in (True, False):
        recorder = ProfileRecorder(str(schema.query))
        with step_machine(not kernels), query_trace(recorder):
            with evaluation_deadline(time.perf_counter() + 1.0):
                result = schema.run(database)
        runs.append((result, _applications(recorder)))
    return runs


def _assert_same_runs(schema, database, reference=None):
    """The generated run and the join-per-round loop agree on the answers, every
    counter and every operator's applications; returns the generated result."""
    (kernel, kernel_applied), (interpreted, interpreted_applied) = _both_runs(schema, database)
    where = f"{schema.program}\n{schema.query}"
    assert kernel.answers == interpreted.answers, where
    if reference is not None:
        assert kernel.answers == reference, where
    assert _totals(kernel.stats) == _totals(interpreted.stats), where
    assert kernel_applied == interpreted_applied, where
    return kernel


class TestExecutorParity:
    def test_differential_cases_routed_to_the_schema(self):
        routed = 0
        for seed in range(84):
            case = generate_case(seed)
            kernel, interpreted = _both_executors(case.program, case.database, case.query)
            assert kernel.strategy == interpreted.strategy, case.name
            if not kernel.strategy.startswith("one-sided"):
                continue
            routed += 1
            assert kernel.answers == interpreted.answers, case.name
            assert _totals(kernel.stats) == _totals(interpreted.stats), case.name
            assert _applications(kernel.profile) == _applications(interpreted.profile), case.name
        assert routed >= 40  # the family mix really exercises both directions

    @pytest.mark.parametrize("recursion", ["example 3.4", "tc with permissions"])
    def test_e4_recursions(self, recursion):
        """E4's two recursions, every column selected: Example 3.4's disconnected
        ``d(Z)`` is a counted unrestricted scan, the permissions carry is binary."""
        if recursion == "example 3.4":
            program, arity = example_3_4(), 3
            database = relations_database(
                e=random_pairs(120, 40, seed=3),
                d=[(value,) for value in range(10)],
                t0=[(i % 40, (i * 7) % 40, (i * 3) % 40) for i in range(30)],
            )
        else:
            program, arity = tc_with_permissions(), 2
            database = permissions_database(random_graph(20, 50, seed=9), permission_fraction=0.6, seed=9)
        unrestricted = 0
        for column in range(arity):
            for constant in (1, 7):
                query = SelectionQuery.of("t", arity, {column: constant})
                schema = OneSidedSchema(program, "t", query)
                reference, _ = seminaive_query(program, database, "t", {column: constant})
                result = _assert_same_runs(schema, database, reference)
                unrestricted += result.stats.unrestricted_lookups
        assert (unrestricted > 0) == (recursion == "example 3.4")

    def test_missing_relation_reads_as_empty_on_both_executors(self, tc_program):
        database = Database.from_dict({"a": [(1, 2), (2, 3)]})  # no exit relation b
        for column in (0, 1):
            schema = OneSidedSchema(tc_program, "t", SelectionQuery.of("t", 2, {column: 1}))
            (kernel, applied), (interpreted, _applied) = _both_runs(schema, database)
            assert kernel.answers == interpreted.answers == set()
            assert _totals(kernel.stats) == _totals(interpreted.stats)
            # b's missing-relation lookups are recorded, once per application reaching it
            assert kernel.stats.lookups > 0 and applied

    #: answers and nonzero counters of a 19-atom recursive body, as the step
    #: machine counted them while no generated run could nest that deep
    LONG_BODY = {
        "t(0, Y)?": (
            {(0, 1000), (0, 1025), (0, 1035), (0, 1040), (0, 1050), (0, 1060)},
            {"tuples_examined": 4886, "tuples_produced": 25, "lookups": 4184, "iterations": 3,
             "peak_state_tuples": 35, "peak_state_columns": 35},
        ),
        "t(X, 1040)?": (
            {(x, 1040) for x in (0, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 40)},
            {"tuples_examined": 1032, "tuples_produced": 13, "lookups": 949, "iterations": 3,
             "peak_state_tuples": 21, "peak_state_columns": 21},
        ),
    }

    @pytest.mark.parametrize("query", sorted(LONG_BODY))
    def test_a_body_deeper_than_one_function_chains_its_loops(self, query):
        """The selection, the carry and 19 atoms inside the carry loop pass CPython's
        20 nested blocks: the generated run goes on in a second function."""
        body = ", ".join(f"a(Z{i}, Z{i + 1})" for i in range(19))
        program = parse_program(f"t(Z0, Y) :- {body}, t(Z19, Y).\nt(X, Y) :- b(X, Y).")
        database = Database.from_dict({
            "a": [(i, i + 1) for i in range(60)] + [(i, i + 3) for i in range(0, 60, 4)],
            "b": [(i, 1000 + i) for i in range(0, 64, 5)],
        })
        kernel, interpreted = _both_executors(program, database, query)
        answers, counters = self.LONG_BODY[query]
        assert kernel.strategy.startswith("one-sided-")
        assert kernel.answers == interpreted.answers == answers
        assert _totals(kernel.stats) == _totals(interpreted.stats)
        assert {key: value for key, value in _totals(kernel.stats).items() if value} == {
            **counters, "carry_arity": 1
        }
        assert _applications(kernel.profile) == _applications(interpreted.profile)
        schema = compile_schema(kernel.provenance.optimized, "t", 2, kernel.query.bound_columns())
        assert "def _part0(" in schema._runs[()].__kernel_source__

    @pytest.mark.parametrize("program", [canonical_two_sided(), same_generation_distinct_parents()])
    def test_bounded_sides_route(self, program):
        predicate = program.rules[0].head.predicate
        names = sorted(program.edb_predicates())
        for seed in range(6):
            database = relations_database(
                **{name: random_pairs(14, 7, seed=seed + index) for index, name in enumerate(names)}
            )
            query = SelectionQuery.of(predicate, 2, {0: seed % 7, 1: (seed + 2) % 7})
            kernel, interpreted = _both_executors(program, database, query)
            assert kernel.strategy.endswith("(bounded sides, auto)")
            reference, _ = seminaive_query(program, database, predicate, query.bindings_dict())
            assert kernel.answers == interpreted.answers == reference
            assert _totals(kernel.stats) == _totals(interpreted.stats)
            assert _applications(kernel.profile) == _applications(interpreted.profile)


def _successors(edges):
    successors = {}
    for source, target in edges:
        successors.setdefault(source, set()).add(target)
    return successors


def _bfs_levels(successors, start):
    """Breadth-first levels of the nodes reachable from ``start`` by paths of length
    >= 1 — ``start`` itself only when a cycle leads back to it.  No engine code."""
    levels, reached = [], set()
    frontier = successors.get(start, set())
    while frontier:
        levels.append(frontier)
        reached |= frontier
        frontier = {node for here in frontier for node in successors.get(here, ())} - reached
    return levels


def _graph_families(rng: random.Random):
    """Random forests, chains and graphs with cycles, as edge lists."""
    for _ in range(3):
        nodes = rng.randrange(8, 40)
        yield [(rng.randrange(child), child) for child in range(1, nodes) if rng.random() < 0.9]
        order = rng.sample(range(100), nodes)
        yield list(zip(order, order[1:]))
        yield [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(nodes + nodes // 2)]


class TestCountsAgainstBreadthFirstSearch:
    """Figure 9 on transitive closure costs its reach (Properties 1-3, Lemma 4.1):
    ``t(c, Y)?`` carries the nodes reachable from ``c``, ``t(X, c)?`` those reaching it,
    each produced once, one round per BFS level, one restricted probe per node.

    With ``a = b``, the stored probes are: forward, ``b`` and ``a`` at ``c`` and then
    ``a`` (``f``) and ``b`` (``g``) at every reached node; backward, ``b`` at ``c``
    and ``a`` at every reached node (``g`` only re-attaches ``c``).  Every relation
    below held on 248,848 queries (seeds 0-299 of these families, both modes)."""

    PROGRAM = "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y)."

    @pytest.mark.parametrize("kernels", [True, False])
    def test_schema_counts_are_the_reach(self, kernels):
        program = parse_program(self.PROGRAM)
        rng = random.Random(411)
        queries = 0
        for edges in _graph_families(rng):
            database = Database.from_dict({"a": edges, "b": edges})
            forward = _successors(edges)
            backward = _successors((target, source) for source, target in edges)
            for constant in {node for edge in edges for node in edge}:
                for column, successors, probes in ((0, forward, 2), (1, backward, 1)):
                    levels = _bfs_levels(successors, constant)
                    reached = set().union(*levels)
                    reach = len(reached)
                    buckets = sum(len(successors.get(node, ())) for node in [constant, *reached])
                    with step_machine(not kernels), evaluation_deadline(time.perf_counter() + 1.0):
                        result = one_sided_query(
                            program, database, SelectionQuery.of("t", 2, {column: constant})
                        )
                    stats = result.stats
                    assert {row[1 - column] for row in result.answers} == reached
                    assert stats.tuples_produced == reach
                    assert stats.iterations == len(levels)
                    assert stats.unrestricted_lookups == 0
                    assert stats.peak_state_tuples <= 2 * reach
                    assert stats.lookups == probes * (1 + reach)
                    assert stats.tuples_examined == probes * buckets
                    queries += 1
        assert queries > 300


def _random_linear_recursion(rng: random.Random):
    """A safe single-linear-rule recursion exercising every corner of the compiled schema.

    Multi-atom nonrecursive bodies, constants / repeated variables / head
    variables in the recursive call, linking columns left free by the query
    (remembered), and exit rules that are an EDB atom, an IDB cross-product
    layer, or a head with a repeated variable or a constant.
    """
    arity = rng.choice((2, 2, 3))
    head = [f"H{i}" for i in range(arity)]
    call = []
    for i in range(arity):
        roll = rng.random()
        if roll < 0.35:
            call.append(head[i])  # invariant
        elif roll < 0.8:
            call.append(f"L{i}")  # linking
        elif roll < 0.87:
            call.append(rng.randrange(4))  # constant
        elif roll < 0.94 and call:
            call.append(rng.choice(call))  # repeat
        else:
            call.append(rng.choice(head))  # another head variable
    # every non-invariant head variable must be bound by the nonrecursive body
    needed = [head[i] for i in range(arity) if call[i] != head[i]]
    pool = needed + [term for term in call if isinstance(term, str)] + ["E"]
    body = []
    while needed or not body or (len(body) < 3 and rng.random() < 0.4):
        first = needed.pop() if needed else rng.choice(pool)
        if rng.random() < 0.2:
            body.append(f"u({first})")
        else:
            body.append(f"{rng.choice(('e1', 'e2'))}({first}, {rng.choice(pool)})")
    args = ", ".join(head)
    rules = [f"t({args}) :- {', '.join(body)}, t({', '.join(map(str, call))})."]
    exits = rng.sample(("edb", "edb", "idb", "repeat", "constant"), rng.choice((1, 2)))
    for kind in exits:
        if kind == "edb":
            rules.append(f"t({args}) :- base{arity}({args}).")
        elif kind == "idb":
            rules.append(f"t({args}) :- layer({args}).")
            rules.append(f"layer({args}) :- {', '.join(f'u({v})' for v in head[:-1])}, v({head[-1]}).")
        elif kind == "repeat":
            rules.append(f"t({', '.join(['X'] * arity)}) :- u(X).")
        else:
            rules.append(f"t({', '.join(['X'] * (arity - 1) + ['2'])}) :- v(X).")
    program = parse_program("\n".join(rules))
    domain = 5
    database = relations_database(
        e1=random_pairs(9, domain, seed=rng.randrange(10_000)),
        e2=random_pairs(9, domain, seed=rng.randrange(10_000)),
        u=[(value,) for value in range(domain) if value == 0 or rng.random() < 0.6],
        v=[(value,) for value in range(domain) if value == 1 or rng.random() < 0.6],
        base2=random_pairs(5, domain, seed=rng.randrange(10_000)),
        base3=[tuple(rng.randrange(domain) for _ in range(3)) for _ in range(6)],
    )
    return program, database, arity


class TestCompiledSchemaProperty:
    def test_compiled_schema_equals_seminaive_selection(self):
        rng = random.Random(1987)
        ran = refused = forward = backward = 0
        for _ in range(150):
            program, database, arity = _random_linear_recursion(rng)
            selections = [{}] + [{column: rng.randrange(5)} for column in range(arity)]
            selections.append({0: rng.randrange(5), arity - 1: rng.randrange(5)})
            for bindings in selections:
                query = SelectionQuery.of("t", arity, bindings)
                try:
                    schema = OneSidedSchema(program, "t", query, require_one_sided=False)
                except ReproError:
                    refused += 1  # e.g. an output column the body never touches
                    continue
                reference, _ = seminaive_query(program, database, "t", bindings)
                _assert_same_runs(schema, database, reference)
                ran += 1
                forward += schema.plan.direction == FORWARD
                backward += schema.plan.direction == BACKWARD
        assert ran > 4 * refused
        assert forward > 100 and backward > 100

    def test_carry_pattern_may_change_between_rounds(self):
        """``t(W, X)`` passes the selected column on once and then loses it: the carry's
        second column is known after the first step and unknown from then on."""
        program = parse_program("t(X, Y) :- a(Y, Z), t(W, X).\nt(X, Y) :- b(X, Y).")
        plan = compile_schema(program, "t", 2, (0,), require_one_sided=False)
        assert plan.init_known == (False, True)
        assert set(plan.forward) == {(False, True), (False, False)}
        for seed in range(5):
            database = relations_database(
                a=random_pairs(6, 6, seed=seed), b=random_pairs(3, 6, seed=seed + 50)
            )
            for constant in range(6):
                query = SelectionQuery.of("t", 2, {0: constant})
                result = one_sided_query(program, database, query, require_one_sided=False)
                reference, _ = seminaive_query(program, database, "t", {0: constant})
                assert result.answers == reference

    @pytest.mark.parametrize(
        ("call", "bound", "probe"),
        [
            ("t(Z, 1)", {}, (1,)),  # a constant in the recursive call
            ("t(Z, W, W)", {2: 1}, (1,)),  # a call variable repeated into the selected column
        ],
    )
    def test_probed_carry_follows_its_contents_between_rounds(self, call, bound, probe):
        """These recursive calls make the join *probe* the carry relation instead of scanning
        it, so the index it registers in the first round must hold each later round's rows:
        five rounds of two rows each, the second row of every round failing the probe."""
        arity = call.count(",") + 1
        head = "t(X, Y, W)" if arity == 3 else "t(X, Y)"
        program = parse_program(f"{head} :- e(X, Z), f(Y), {call}.\n{head} :- base({head[2:-1]}).")
        database = relations_database(
            e=[(i, i + 1) for i in range(5)], f=[(1,), (2,)], base=[(5, 1, 1)[:arity]]
        )
        query = SelectionQuery.of("t", arity, bound)
        schema = OneSidedSchema(program, "t", query, require_one_sided=False)
        assert schema.plan.direction == BACKWARD
        ((step, _after, _finals),) = schema.plan.operators().values()
        assert step.steps[1].predicate == "t.carry" and step.steps[1].probe_columns == probe
        reference, _ = seminaive_query(program, database, "t", bound)
        assert len(reference) == 11
        for kernels in (True, False):
            with step_machine(not kernels):
                result = schema.run(database)
            assert result.answers == reference
            assert result.stats.iterations == 6  # five productive rounds and the empty one
            assert result.stats.tuples_produced == 11  # two new rows a round after the exit's one

    def test_unknowable_repeated_call_variable_is_refused(self):
        """``t(H2, L, H2)`` with H2 determined only at the exit imposes an equality the
        forward carry cannot hold; the schema used to drop it and over-answer."""
        program = parse_program(
            "t(H0, H1, H2) :- u(H1), e(H0, L), t(H2, L, H2).\nt(H0, H1, H2) :- base(H0, H1, H2)."
        )
        with pytest.raises(EvaluationError, match="repeats H2"):
            compile_schema(program, "t", 3, (0,), require_one_sided=False)
        assert compile_schema(program, "t", 3, (2,), require_one_sided=False).direction == BACKWARD

    def test_repeated_head_variable_is_refused_not_misanswered(self):
        """``t(X, X) :- ...`` breaks the paper's distinct-head-variables assumption: the
        schema used to run it and drop answers; now it declines and ``answer`` falls through."""
        program = parse_program("t(X, X) :- a(X, Z), t(Z, W).\nt(X, Y) :- b(X, Y).")
        database = relations_database(a=[(1, 2), (2, 3)], b=[(3, 4), (2, 5)])
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(ProgramError):
            OneSidedSchema(program, "t", query, require_one_sided=False)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert answer(program, database, query).answers == reference == {(1, 1)}


# ----------------------------------------------------------------------
# analysis paid once per program: plans and the optimizer's result kept on it
# ----------------------------------------------------------------------
def _tc_variant(index: int):
    return parse_program(f"t(X, Y) :- a{index}(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).")


class TestPlanMemo:
    def test_each_program_keeps_its_own_plan(self, tc_program):
        """Plans live on the program object: another constant reuses them, and a
        set-equal program (its own object) has its own, equal in what they decide."""
        reordered = Program(tuple(reversed(tc_program.rules)))
        assert reordered == tc_program and reordered is not tc_program
        first = OneSidedSchema(tc_program, "t", SelectionQuery.of("t", 2, {0: 1})).plan
        assert OneSidedSchema(tc_program, "t", SelectionQuery.of("t", 2, {0: 99})).plan is first
        other = OneSidedSchema(reordered, "t", SelectionQuery.of("t", 2, {0: 99})).plan
        assert other is not first and other.describe() == first.describe()
        assert optimize_program(tc_program, "t") is optimize_program(tc_program, "t")
        assert optimize_program(reordered, "t") is not optimize_program(tc_program, "t")

    def test_key_separates_predicate_bound_columns_and_sidedness_flag(self):
        program = parse_program(
            "t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"
            "s(X, Y) :- a(X, Z), s(Z, Y).\ns(X, Y) :- b(X, Y)."
        )
        plans = [
            compile_schema(program, "t", 2, (0,)),
            compile_schema(program, "t", 2, (1,)),
            compile_schema(program, "t", 2, (0, 1)),
            compile_schema(program, "t", 2, (0,), require_one_sided=False),
            compile_schema(program, "s", 2, (0,)),
        ]
        assert len({id(plan) for plan in plans}) == len(plans)
        assert compile_schema(program, "t", 2, (0,)) is plans[0]

    def test_a_plan_holds_no_relation_contents(self, tc_program):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]})
        query = SelectionQuery.of("t", 2, {0: 1})
        assert answer(tc_program, database, query).answers == {(1, 3)}
        database.add_fact("a", (2, 7))
        database.add_fact("b", (7, 8))
        assert answer(tc_program, database, query).answers == {(1, 3), (1, 8)}

    def test_inapplicable_schema_is_analysed_once(self, monkeypatch):
        program = canonical_two_sided()
        calls = []
        build = schema_module._build_plan
        monkeypatch.setattr(
            schema_module, "_build_plan", lambda *args: calls.append(args) or build(*args)
        )
        for constant in (1, 2, 3):
            with pytest.raises(NotOneSidedError, match="not one-sided"):
                OneSidedSchema(program, "t", SelectionQuery.of("t", 2, {0: constant}))
        assert len(calls) == 1

    def test_plans_live_as_long_as_their_program(self):
        """Nothing outside a program holds what was compiled for it, so a stream of
        programs leaves nothing behind once they are dropped."""
        programs = []
        for index in range(300):
            program = _tc_variant(index)
            compile_schema(program, "t", 2, (0,))
            optimize_program(program, "t")
            programs.append(weakref.ref(program))
        del program
        gc.collect()
        assert [ref() for ref in programs] == [None] * len(programs)

    def test_concurrent_answers_on_one_program_agree(self, tc_program):
        """The service reader pool's access pattern: many threads, one program."""
        database = edge_database(random_pairs(60, 25, seed=3))
        queries = [SelectionQuery.of("t", 2, {i % 2: i % 25}) for i in range(40)]
        expected = [answer(tc_program, database, query).answers for query in queries]
        cold = Program(tc_program.rules)  # nothing compiled for it yet: the threads race to
        failures = []

        def worker():
            try:
                for _ in range(5):
                    for query, wanted in zip(queries, expected):
                        if answer(cold, database, query).answers != wanted:
                            failures.append(query)
            except Exception as error:  # surfaced below, with the traceback's message
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures

    @pytest.mark.parametrize("kernels", [True, False])
    def test_a_passed_deadline_stops_the_first_round(self, tc_program, kernels):
        database = Database.from_dict({"a": [(0, 1), (1, 2)], "b": [(2, 3)]})
        stats = EvaluationStats()
        with step_machine(not kernels), evaluation_deadline(time.perf_counter() - 1.0):
            with pytest.raises(QueryTimeout, match="^evaluation exceeded its deadline at iteration 1$"):
                one_sided_query(tc_program, database, SelectionQuery.of("t", 2, {0: 0}), stats=stats)
        assert stats.iterations == 0
        assert stats.tuples_produced == 1  # the first carry row, flushed before the raise

    @pytest.mark.parametrize("kernels", [True, False])
    def test_deadline_interrupts_between_carry_rounds(self, tc_program, kernels):
        """Every round of a chain adds one carry row and probes once, so the counters
        at the raise say how many rounds completed — they must all have been recorded."""
        length = 50_000
        database = Database.from_dict(
            {"a": [(i, i + 1) for i in range(length)], "b": [(length, length + 1)]}
        )
        # (column, constant, a constant reaching nothing that warms plan and indexes,
        # lookups before the first round)
        for column, constant, warm, initial in ((0, 0, length, 2), (1, length + 1, 0, 1)):
            with step_machine(not kernels):
                one_sided_query(tc_program, database, SelectionQuery.of("t", 2, {column: warm}))
                stats = EvaluationStats()
                with evaluation_deadline(time.perf_counter() + 0.005):
                    with pytest.raises(QueryTimeout):
                        one_sided_query(
                            tc_program, database, SelectionQuery.of("t", 2, {column: constant}), stats=stats
                        )
            assert 0 < stats.iterations < length
            assert stats.tuples_produced == stats.iterations + 1
            assert stats.lookups == stats.iterations + initial
