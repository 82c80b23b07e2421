"""The storage dictionary, and the engines' stored-value boundary.

The fixpoint engines evaluate over the database's own relations: nothing is
re-encoded on the way in or decoded on the way out.  What the deleted codec
guaranteed is pinned here by counts instead: string ids cost exactly what int
ids cost, the relations handed back are the ones the fixpoint built, a round
takes no batch decision, and the caller's database is left as it was.
"""

from __future__ import annotations

import pytest

from repro import Database, Session, magic_query, parse_program
from repro.datalog.relation import Relation
from repro.engine import (
    EvaluationStats,
    SelectionQuery,
    naive_evaluate,
    seminaive,
    seminaive_evaluate,
)
from repro.engine.domain import Domain
from repro.testing import generate_case
from repro.testing.reference import batching, step_machine
from repro.workloads import chain, edge_database, layered_dag, uniform_tree

PROGRAM = parse_program(
    """
    t(X, Y) :- a(X, Z), t(Z, Y).
    t(X, Y) :- b(X, Y).
    """
)

#: the three execution modes: (kernels, batching)
MODES = {"kernel": (True, "off"), "columnar": (True, "force"), "interpreted": (False, "off")}


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    return values


def renamed(database: Database, rename) -> Database:
    return Database(
        Relation(r.name, r.arity, [tuple(rename(value) for value in row) for row in r.rows()])
        for r in database.relations()
    )


def state_of(database: Database) -> dict:
    return {r.name: (set(r.rows()), r.version) for r in database.relations()}


class TestDomainRoundTrip:
    def test_mixed_value_types_round_trip(self):
        domain = Domain()
        values = ["alpha", 7, 2.5, "7", ("nested", 1), "alpha"]
        codes = [domain.intern(value) for value in values]
        # distinct values get distinct dense codes; repeats reuse them
        assert codes[0] == codes[5]
        assert len(set(codes)) == 5
        assert sorted(set(codes)) == list(range(5))
        for value, code in zip(values, codes):
            assert domain.decode(code) == value
            assert type(domain.decode(code)) is type(value)

    def test_python_equality_is_preserved(self):
        # 1 and 1.0 are equal in Python set semantics, so they must share a
        # code — exactly what the raw tuple-set storage would do
        domain = Domain()
        assert domain.intern(1) == domain.intern(1.0)
        assert domain.intern("1") != domain.intern(1)

    def test_contains_and_len(self):
        domain = Domain()
        domain.intern("x")
        assert "x" in domain
        assert "y" not in domain
        assert len(domain) == 1


class TestEngineBoundary:
    def test_seminaive_returns_original_values(self):
        database = Database.from_dict(
            {"a": [("u", "v"), ("v", "w")], "b": [("w", "end")]}
        )
        derived = seminaive_evaluate(PROGRAM, database)
        assert derived["t"].rows() == {
            ("w", "end"), ("v", "end"), ("u", "end"),
        }
        assert all(
            type(value) is str for row in derived["t"].rows() for value in row
        )

    def test_mixed_value_types_evaluate_alike_in_every_engine(self):
        database = Database.from_dict(
            {"a": [("a", "b"), ("b", "c"), ("c", "d")], "b": [("d", 0), ("b", 1.5)]}
        )
        expected = naive_evaluate(PROGRAM, database)["t"].rows()
        assert ("a", 0) in expected and ("a", 1.5) in expected
        for kernels, batch in MODES.values():
            with step_machine(not kernels), batching(batch):
                assert seminaive_evaluate(PROGRAM, database)["t"].rows() == expected

    def test_session_query_returns_original_values(self):
        session = Session(
            PROGRAM,
            Database.from_dict({"a": [("s", "m")], "b": [("m", 42), ("s", 2.5)]}),
        )
        answers = session.query("t(s, Y)?").answers
        assert answers == {("s", 42), ("s", 2.5)}
        assert {type(value) for _s, value in answers} == {int, float}
        session.insert("b", ("m", "tail"))
        assert ("s", "tail") in session.query("t(s, Y)?").answers


class TestStringIdsCostWhatIntIdsCost:
    """Renaming every value changes no answer and no counter."""

    @staticmethod
    def check(program, database):
        ids = {value: index for index, value in enumerate(sorted(database.active_domain(), key=repr))}
        as_int = renamed(database, ids.__getitem__)
        as_str = renamed(database, lambda value: f"v{ids[value]:06d}")
        for mode, (kernels, batch) in MODES.items():
            int_stats, str_stats = EvaluationStats(), EvaluationStats()
            before = state_of(as_str)
            with step_machine(not kernels), batching(batch):
                int_derived = seminaive_evaluate(program, as_int, int_stats)
                str_derived = seminaive_evaluate(program, as_str, str_stats)
            assert counters(str_stats) == counters(int_stats), mode
            for predicate, relation in int_derived.items():
                expected = {tuple(f"v{value:06d}" for value in row) for row in relation.rows()}
                assert str_derived[predicate].rows() == expected, (mode, predicate)
            assert state_of(as_str) == before, mode  # rows and versions untouched

    @pytest.mark.parametrize("seed", range(84))
    def test_differential_seeds(self, seed):
        case = generate_case(seed)
        self.check(case.program, case.database)

    @pytest.mark.parametrize(
        "edges",
        [uniform_tree(2, 6), chain(60), layered_dag(5, 8, 3, seed=1)],
        ids=["forest", "chain", "layered-dag"],
    )
    def test_transitive_closure_shapes(self, edges):
        self.check(PROGRAM, edge_database(edges))


class TestTouchedOnce:
    """Counts, not timings: what an evaluation builds, reads and leaves behind."""

    STRING_CHAIN = {"a": [(f"n{i}", f"n{i + 1}") for i in range(30)], "b": [("n30", "end")]}

    @pytest.mark.parametrize("mode", MODES)
    def test_the_relations_returned_are_the_ones_the_fixpoint_built(self, mode, monkeypatch):
        adopted_since_last_round = []
        built = {}
        record_iteration = EvaluationStats.record_iteration
        from_valid_rows = Relation.from_valid_rows.__func__
        evaluate_group = seminaive._evaluate_group

        def counting_record_iteration(stats):
            adopted_since_last_round.clear()
            record_iteration(stats)

        def counting_from_valid_rows(cls, name, arity, rows):
            adopted_since_last_round.append(name)
            return from_valid_rows(cls, name, arity, rows)

        def watching_evaluate_group(program, group, relations, derived, *rest):
            evaluate_group(program, group, relations, derived, *rest)
            built.update({p: (derived[p], derived[p].rows()) for p in group})

        monkeypatch.setattr(EvaluationStats, "record_iteration", counting_record_iteration)
        monkeypatch.setattr(Relation, "from_valid_rows", classmethod(counting_from_valid_rows))
        monkeypatch.setattr(seminaive, "_evaluate_group", watching_evaluate_group)
        kernels, batch = MODES[mode]
        with step_machine(not kernels), batching(batch):
            derived = seminaive_evaluate(PROGRAM, Database.from_dict(self.STRING_CHAIN))
        assert len(derived["t"]) == 31
        assert adopted_since_last_round == []
        for predicate, (relation, rows) in built.items():
            assert derived[predicate] is relation
            assert derived[predicate].rows() is rows

    @pytest.fixture
    def decisions(self, monkeypatch):
        """The executor builder handed to every batch decision, in order."""
        taken = []
        decide = seminaive.BATCH_DECISION

        def recording_decision(build):
            taken.append(build)
            return decide(build)

        monkeypatch.setattr(seminaive, "BATCH_DECISION", recording_decision)
        return taken

    def test_the_batch_decision_is_taken_per_stratum_not_per_round(self, decisions):
        calls = []
        for length in (50, 400):
            decisions.clear()
            stats = EvaluationStats()
            seminaive_evaluate(PROGRAM, edge_database(chain(length)), stats)
            assert stats.iterations == length + 1
            calls.append(len(decisions))
        assert calls == [1, 1]  # one recursive stratum

    def test_maintenance_takes_no_batch_decision(self, decisions):
        """An insert's closure and a delete's over-delete and rederive run the
        kernel loop without asking, however long the chain."""
        for length in (50, 400):
            session = Session(PROGRAM, edge_database(chain(length)))
            decisions.clear()
            session.insert("b", [(length, "end")])
            assert session.last_stats.iterations == length + 1
            session.delete("b", [(length, "end")])
            assert session.last_stats.iterations == length + 1
            assert session.last_stats.tuples_deleted == length + 1
            assert decisions == []

    def test_stored_idb_facts_and_a_magic_seed_leave_the_database_alone(self):
        database = Database.from_dict(
            {"a": [("u", "v"), ("v", "w")], "b": [("w", "end")], "t": [("seed", "fact")]}
        )
        before = state_of(database)
        derived = seminaive_evaluate(PROGRAM, database)
        assert derived["t"].rows() == {
            ("seed", "fact"), ("w", "end"), ("v", "end"), ("u", "end"),
        }
        assert derived["t"] is not database.relation("t")
        answers = magic_query(PROGRAM, database, SelectionQuery.of("t", 2, {0: "u"})).answers
        assert answers == {("u", "end")}
        assert state_of(database) == before
        assert set(database.names()) == {"a", "b", "t"}  # the magic seed went to an overlay

    def test_a_second_evaluation_finds_the_probe_indexes_of_the_first(self):
        database = Database.from_dict(self.STRING_CHAIN)
        with batching("off"):
            seminaive_evaluate(PROGRAM, database)
        index = database.relation("a")._indexes[(1,)]
        with batching("off"):
            seminaive_evaluate(PROGRAM, database)
        assert database.relation("a")._indexes[(1,)] is index
