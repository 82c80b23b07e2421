"""The columnar batch engine must match the row engines exactly.

Whole evaluations under ``REPRO_COLUMNAR=force`` reproduce the kernel
engine's derived relations *and* its instrumentation totals, tuple for tuple
and counter for counter, while the leapfrog join on cyclic bodies examines
asymptotically fewer tuples than the binary plans it replaces.
"""

from __future__ import annotations

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.relation import Relation
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Variable
from repro.engine import (
    EvaluationStats,
    columnar_enabled,
    columnar_mode,
    compile_rule,
    kernel_mode,
    seminaive_evaluate,
)
from repro.engine.instrumentation import query_trace
from repro.engine.columnar import (
    columnar_forced,
    is_cyclic,
    leapfrog_join,
    set_columnar_enabled,
    wcoj_eligible,
)
from repro.obs.profile import ProfileRecorder
from repro.testing import generate_case
from repro.workloads import (
    ALL_CANONICAL,
    appendix_a_database,
    edge_database,
    layered_dag,
    permissions_database,
    random_graph,
    same_generation_database,
    uniform_tree,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestCyclicity:
    def test_triangle_is_cyclic(self):
        assert is_cyclic([frozenset({X, Y}), frozenset({Y, Z}), frozenset({Z, X})])

    def test_path_and_star_are_acyclic(self):
        W = Variable("W")
        assert not is_cyclic([frozenset({X, Y}), frozenset({Y, Z}), frozenset({Z, W})])
        assert not is_cyclic([frozenset({X, Y}), frozenset({X, Z}), frozenset({X, W})])

    def test_four_cycle_is_cyclic(self):
        W = Variable("W")
        assert is_cyclic(
            [
                frozenset({X, Y}),
                frozenset({Y, Z}),
                frozenset({Z, W}),
                frozenset({W, X}),
            ]
        )

    def test_single_edge_and_empty_are_acyclic(self):
        assert not is_cyclic([frozenset({X, Y})])
        assert not is_cyclic([])


def triangle_rule() -> Rule:
    return Rule(
        Atom("tri", (X, Y, Z)),
        (Atom("e", (X, Y)), Atom("e", (Y, Z)), Atom("e", (Z, X))),
    )


def triangle_relations(edges) -> dict:
    return {"e": Relation("e", 2, edges)}


class TestLeapfrogJoin:
    def test_triangle_matches_binary_plans(self):
        edges = set(random_graph(40, 220, seed=5))
        edges |= {(b, a) for a, b in random_graph(40, 60, seed=6)}
        relations = triangle_relations(edges)
        plan = compile_rule(triangle_rule(), relations)
        resolved = wcoj_eligible(plan, relations)
        assert resolved is not None
        direct = leapfrog_join(plan, resolved)
        with columnar_mode(False):
            reference = plan.evaluate(relations)
        assert direct == reference
        # the engine dispatches to the leapfrog join on its own when enabled
        with columnar_mode(True):
            assert plan.evaluate(relations) == reference

    def test_triangle_examines_asymptotically_fewer_tuples(self):
        # a star around hub 0: N spokes each way plus the closing edges; any
        # binary plan materializes the Theta(N^2) spoke-pair intermediate,
        # the leapfrog join touches O(N) candidates
        growth = []
        for n in (40, 80):
            edges = {(0, i) for i in range(1, n)} | {(i, 0) for i in range(1, n)}
            relations = triangle_relations(edges)
            plan = compile_rule(triangle_rule(), relations)
            resolved = wcoj_eligible(plan, relations)
            assert resolved is not None
            wcoj_stats = EvaluationStats()
            binary_stats = EvaluationStats()
            result = leapfrog_join(plan, resolved, wcoj_stats)
            with columnar_mode(False):
                assert plan.evaluate(relations, stats=binary_stats) == result
            growth.append((wcoj_stats.tuples_examined, binary_stats.tuples_examined))
        for wcoj_examined, binary_examined in growth:
            assert wcoj_examined < binary_examined
        # doubling N roughly quadruples the binary plan's work but only
        # doubles the leapfrog join's
        assert growth[1][0] <= growth[0][0] * 3
        assert growth[1][1] >= growth[0][1] * 3

    def test_acyclic_bodies_are_not_eligible(self):
        W = Variable("W")
        rule = Rule(
            Atom("p", (X, W)),
            (Atom("e", (X, Y)), Atom("e", (Y, Z)), Atom("e", (Z, W))),
        )
        relations = triangle_relations({(1, 2), (2, 3), (3, 4)})
        plan = compile_rule(rule, relations)
        assert wcoj_eligible(plan, relations) is None

    def test_string_relations_take_the_leapfrog_join(self):
        relations = {"e": Relation("e", 2, [("a", "b"), ("b", "c"), ("c", "a")])}
        plan = compile_rule(triangle_rule(), relations)
        assert wcoj_eligible(plan, relations) is not None
        with columnar_mode(True):
            assert plan.evaluate(relations) == {("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")}


def star_rule() -> Rule:
    return Rule(
        Atom("tri", (X, Y, Z)),
        (Atom("e", (X, Y)), Atom("f", (Y, Z)), Atom("g", (Z, X))),
    )


def star_relations(n: int, rename=lambda node: node) -> dict:
    """``e``, ``f``, ``g`` each holding a star around hub 0 — ``n`` spokes each
    way — and one cycle over three spokes, so some triangles close."""
    edges = {(0, i) for i in range(1, n)} | {(i, 0) for i in range(1, n)}
    edges |= {(1, 2), (2, 3), (3, 1)}
    rows = [(rename(source), rename(target)) for source, target in edges]
    return {name: Relation(name, 2, rows) for name in "efg"}


def evaluate_profiled(relations, columnar=True):
    """``(tri rows, stats, plan dispatches)`` of the star program's fixpoint."""
    stats = EvaluationStats()
    recorder = ProfileRecorder("tri(X, Y, Z)?", trace_id="leapfrog-test")
    database = Database(relations.values())
    with columnar_mode(columnar), query_trace(recorder.trace_id, recorder):
        derived = seminaive_evaluate(Program.of(star_rule()), database, stats)
    return derived["tri"].rows(), stats, {entry.dispatch for entry in recorder.plans}


class TestLeapfrogOnStoredValues:
    """Sorted runs need a total order, not ints: one type per body, ``int`` or ``str``."""

    @staticmethod
    def as_string(node: int) -> str:
        return f"n{node:05d}"  # order-preserving: zero-padded

    def test_string_star_dispatches_leapfrog_with_the_int_renaming_counts(self):
        examined = []
        for n in (100, 200):
            by_type = {}
            for label, rename in (("int", lambda node: node), ("str", self.as_string)):
                relations = star_relations(n, rename)
                result, stats, dispatches = evaluate_profiled(relations)
                assert dispatches == {"leapfrog"}, label
                binary, binary_stats, _ = evaluate_profiled(relations, columnar=False)
                assert binary == result and len(result) == 12, label
                assert binary_stats.tuples_examined > n * n
                by_type[label] = (stats.tuples_examined, stats.lookups)
            assert by_type["str"] == by_type["int"]
            examined.append(by_type["str"][0])
        # linear in n where the binary plan's spoke-pair intermediate is quadratic
        assert examined[1] <= examined[0] * 2.5
        assert examined[1] < 200 * 10

    def test_mixed_types_fall_back_to_the_binary_plan(self):
        ints = star_relations(20)
        strings = star_relations(20, self.as_string)
        two_typed_body = {"e": ints["e"], "f": ints["f"], "g": strings["g"]}
        two_typed_relation = dict(ints)
        two_typed_relation["g"] = Relation("g", 2, [*ints["g"].rows(), ("x", 0), (0, "x")])
        for relations in (two_typed_body, two_typed_relation):
            result, _stats, dispatches = evaluate_profiled(relations)
            assert dispatches == {"kernel"}
            # the 12 int triangles survive a few stray string rows; no value
            # of ``g`` joins when it holds strings only
            assert len(result) == (0 if relations is two_typed_body else 12)
            with kernel_mode(False):
                assert evaluate_profiled(relations, columnar=False)[0] == result


class TestColumnarFlag:
    def test_mode_states(self):
        with columnar_mode(False):
            assert not columnar_enabled()
            assert not columnar_forced()
        with columnar_mode(True):
            assert columnar_enabled()
            assert not columnar_forced()
        with columnar_mode("force"):
            assert columnar_enabled()
            assert columnar_forced()

    def test_set_override_and_restore(self):
        baseline = columnar_enabled()
        set_columnar_enabled(False)
        try:
            assert not columnar_enabled()
        finally:
            set_columnar_enabled(None)
        assert columnar_enabled() == baseline


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    return values


def evaluate_modes(program, database):
    """Derived relations + counters under kernel, forced-columnar, adaptive."""
    outcomes = {}
    for label, columnar in (("kernel", False), ("forced", "force"), ("adaptive", True)):
        stats = EvaluationStats()
        with kernel_mode(True), columnar_mode(columnar):
            derived = seminaive_evaluate(program, database, stats)
        outcomes[label] = (
            {name: relation.rows() for name, relation in derived.items()},
            counters(stats),
        )
    return outcomes


class TestWholeEvaluationParity:
    workloads = [
        ("transitive_closure", lambda: edge_database(layered_dag(4, 6, 3, seed=2))),
        ("transitive_closure", lambda: edge_database(uniform_tree(2, 6))),
        ("same_generation", lambda: same_generation_database(branching=2, depth=5)),
        ("tc_with_permissions", lambda: permissions_database(layered_dag(4, 5, 2, seed=3))),
        ("appendix_a_p", lambda: appendix_a_database(pairs=14, domain=9, seed=1)),
        ("canonical_two_sided", lambda: edge_database(layered_dag(3, 5, 2, seed=4))),
        ("example_3_5", lambda: edge_database(random_graph(14, 30, seed=5))),
    ]

    @pytest.mark.parametrize("name, database_factory", workloads)
    def test_results_and_stats_identical_across_modes(self, name, database_factory):
        program = ALL_CANONICAL[name]()
        outcomes = evaluate_modes(program, database_factory())
        kernel_rows, kernel_counters = outcomes["kernel"]
        for label in ("forced", "adaptive"):
            rows, totals = outcomes[label]
            assert rows == kernel_rows, f"{name}: {label} derived relations drifted"
            assert totals == kernel_counters, f"{name}: {label} counters drifted"

    def test_generated_cases_agree(self):
        for seed in range(6):
            case = generate_case(seed)
            outcomes = evaluate_modes(case.program, case.database)
            kernel_rows, kernel_counters = outcomes["kernel"]
            for label in ("forced", "adaptive"):
                rows, totals = outcomes[label]
                assert rows == kernel_rows, f"seed {seed}: {label} relations drifted"
                assert totals == kernel_counters, f"seed {seed}: {label} counters drifted"

    def test_interpreted_engine_agrees_with_forced_columnar(self):
        program = ALL_CANONICAL["transitive_closure"]()
        database = edge_database(layered_dag(4, 5, 2, seed=9))
        interpreted_stats = EvaluationStats()
        columnar_stats = EvaluationStats()
        with kernel_mode(False), columnar_mode(False):
            interpreted = seminaive_evaluate(program, database, interpreted_stats)
        with kernel_mode(True), columnar_mode("force"):
            columnar = seminaive_evaluate(program, database, columnar_stats)
        assert {n: r.rows() for n, r in interpreted.items()} == {
            n: r.rows() for n, r in columnar.items()
        }
        assert counters(interpreted_stats) == counters(columnar_stats)
