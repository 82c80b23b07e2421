"""The columnar batch engine must match the row engines exactly.

Whole evaluations forced columnar (``batching("force")``) reproduce the kernel
engine's derived relations *and* its instrumentation totals, tuple for tuple
and counter for counter — on every body, cyclic ones included.
"""

from __future__ import annotations

import pytest

from repro.datalog import Database, parse_program
from repro.engine import EvaluationStats, answer, seminaive_evaluate
from repro.obs.profile import explain
from repro.testing import generate_case
from repro.testing.reference import batching, step_machine
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


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    return values


def evaluate_modes(program, database):
    """Derived relations + counters under kernel, forced-columnar, adaptive."""
    outcomes = {}
    for label, batch in (("kernel", "off"), ("forced", "force"), ("adaptive", None)):
        stats = EvaluationStats()
        with step_machine(False), batching(batch):
            derived = seminaive_evaluate(program, database, stats)
        outcomes[label] = (
            {name: relation.rows() for name, relation in derived.items()},
            counters(stats),
        )
    return outcomes


def triangle_program():
    return parse_program("tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).")


def triangle_database(rename) -> Database:
    """A random graph with some edges reversed, so triangles close."""
    edges = set(random_graph(40, 220, seed=5)) | {(b, a) for a, b in random_graph(40, 60, seed=6)}
    return Database.from_dict({"e": [(rename(source), rename(target)) for source, target in edges]})


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

    @pytest.mark.parametrize(
        "program_factory, database_factory, query",
        [
            (
                ALL_CANONICAL["transitive_closure"],
                lambda: edge_database(layered_dag(4, 5, 2, seed=9)),
                "t(X, Y)?",
            ),
            (triangle_program, lambda: triangle_database(lambda node: node), "tri(X, Y, Z)?"),
            (triangle_program, lambda: triangle_database(lambda node: f"n{node}"), "tri(X, Y, Z)?"),
        ],
        ids=["transitive_closure", "triangle-int", "triangle-str"],
    )
    def test_interpreted_engine_agrees_with_forced_columnar(
        self, program_factory, database_factory, query
    ):
        """Interpreted, kernel and forced-columnar derive the same rows with the
        same counters on every body — a cyclic one has no dispatch of its own."""
        program = program_factory()
        database = database_factory()
        outcomes = {}
        for label, kernels, batch in (
            ("interpreted", False, "off"),
            ("kernel", True, "off"),
            ("forced", True, "force"),
        ):
            stats = EvaluationStats()
            with step_machine(not kernels), batching(batch):
                derived = seminaive_evaluate(program, database, stats)
            outcomes[label] = ({n: r.rows() for n, r in derived.items()}, counters(stats))
        assert outcomes["interpreted"] == outcomes["kernel"] == outcomes["forced"]
        predicted = explain(program, query, database)
        executed = answer(program, database, query, profile=True).profile
        assert {plan.dispatch for plan in predicted.plans} == {
            plan.dispatch for plan in executed.plans
        }


MODES = (
    ("interpreted", False, "off"),
    ("kernel", True, "off"),
    ("forced", True, "force"),
    ("adaptive", True, None),
)


def evaluate_every_mode(program, database):
    """``{mode: (derived rows, counters)}`` over interpreted, kernel, forced
    columnar and adaptive evaluation."""
    outcomes = {}
    for label, kernels, batch in MODES:
        stats = EvaluationStats()
        with step_machine(not kernels), batching(batch):
            derived = seminaive_evaluate(program, database, stats)
        outcomes[label] = ({n: r.rows() for n, r in derived.items()}, counters(stats))
    return outcomes


def as_string(node: int) -> str:
    return f"n{node:05d}"  # order-preserving: zero-padded


def star_rows(n: int, rename=lambda node: node) -> list:
    """A star around hub 0 — ``n`` spokes each way — plus one cycle over three
    spokes and one self-loop, so triangles, squares and loops all close."""
    edges = {(0, i) for i in range(1, n)} | {(i, 0) for i in range(1, n)}
    edges |= {(1, 2), (2, 3), (3, 1), (4, 4)}
    return [(rename(source), rename(target)) for source, target in sorted(edges)]


#: rule bodies over binary relations, cyclic and acyclic, one predicate or three
BODIES = {
    "triangle": "tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
    "three_relation_triangle": "tri(X, Y, Z) :- e(X, Y), f(Y, Z), g(Z, X).",
    "four_cycle": "sq(X, Y, Z, W) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X).",
    "two_cycle": "back(X, Y) :- e(X, Y), e(Y, X).",
    "path": "path3(X, W) :- e(X, Y), e(Y, Z), e(Z, W).",
    "star": "fan(X, Y, Z, W) :- e(X, Y), e(X, Z), e(X, W).",
    "self_loop": "loop(X) :- e(X, X).",
}

#: how the star's node ids are stored: ints, order-preserving strings, or
#: ints with a few stray string rows in every relation
ENCODINGS = {
    "int": lambda n: star_rows(n),
    "str": lambda n: star_rows(n, as_string),
    "mixed": lambda n: star_rows(n) + [("x", 0), (0, "x"), ("x", "x")],
}


class TestEveryBodyHasOneAccounting:
    """With no join of its own for cyclic bodies, every mode runs the same
    binary plan: rows, counters and the predicted dispatch agree on any body
    and any value type."""

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    @pytest.mark.parametrize("body", sorted(BODIES))
    def test_modes_agree_and_explain_predicts_the_dispatch(self, body, encoding):
        program = parse_program(BODIES[body])
        rows = ENCODINGS[encoding](12)
        database = Database.from_dict({name: rows for name in "efg"})
        outcomes = evaluate_every_mode(program, database)
        reference = outcomes["interpreted"]
        assert reference[0][program.rules[0].head.predicate], "the body should derive rows"
        for label in ("kernel", "forced", "adaptive"):
            assert outcomes[label] == reference, f"{body}/{encoding}: {label} drifted"
        query = f"{program.rules[0].head}?"
        predicted = explain(program, query, database)
        executed = answer(program, database, query, profile=True).profile
        assert {plan.dispatch for plan in predicted.plans} == {
            plan.dispatch for plan in executed.plans
        }

    @pytest.mark.parametrize("mode", [label for label, _kernels, _batch in MODES])
    def test_order_preserving_string_renaming_keeps_the_counters(self, mode):
        kernels, batch = {label: (k, b) for label, k, b in MODES}[mode]
        program = parse_program(BODIES["three_relation_triangle"])
        by_type = {}
        for label, rename in (("int", lambda node: node), ("str", as_string)):
            rows = star_rows(60, rename)
            stats = EvaluationStats()
            with step_machine(not kernels), batching(batch):
                derived = seminaive_evaluate(
                    program, Database.from_dict({name: rows for name in "efg"}), stats
                )
            by_type[label] = (derived["tri"].rows(), counters(stats))
        int_rows, int_counters = by_type["int"]
        str_rows, str_counters = by_type["str"]
        assert str_rows == {tuple(as_string(node) for node in row) for row in int_rows}
        assert str_counters == int_counters

    def test_the_binary_plan_pays_for_the_spoke_pairs(self):
        """A star's triangles cost the binary plan its Theta(n^2) spoke-pair
        intermediate: doubling the spokes roughly quadruples the work."""
        program = parse_program(BODIES["three_relation_triangle"])
        examined = []
        for n in (40, 80):
            rows = star_rows(n)
            stats = EvaluationStats()
            derived = seminaive_evaluate(program, Database.from_dict({name: rows for name in "efg"}), stats)
            # three rotations of the spoke cycle, nine through the hub and
            # four through the self-loop
            assert len(derived["tri"]) == 16
            assert stats.tuples_examined > n * n
            examined.append(stats.tuples_examined)
        assert examined[1] >= examined[0] * 3


class TestMixedValueTypes:
    """Stray string rows beside int rows change no answer and no mode's counters."""

    def test_stray_string_rows_leave_the_int_triangles(self):
        program = parse_program(BODIES["three_relation_triangle"])
        ints = star_rows(20)
        database = Database.from_dict({"e": ints, "f": ints, "g": ints + [("x", 0), (0, "x")]})
        outcomes = evaluate_every_mode(program, database)
        assert outcomes["kernel"] == outcomes["forced"] == outcomes["adaptive"] == outcomes["interpreted"]
        assert outcomes["interpreted"][0]["tri"] == evaluate_every_mode(
            program, Database.from_dict({name: ints for name in "efg"})
        )["interpreted"][0]["tri"]
        assert len(outcomes["interpreted"][0]["tri"]) == 16

    def test_a_string_only_relation_joins_nothing(self):
        program = parse_program(BODIES["three_relation_triangle"])
        ints = star_rows(20)
        database = Database.from_dict({"e": ints, "f": ints, "g": star_rows(20, as_string)})
        outcomes = evaluate_every_mode(program, database)
        assert outcomes["kernel"] == outcomes["forced"] == outcomes["adaptive"] == outcomes["interpreted"]
        assert len(outcomes["interpreted"][0]["tri"]) == 0
