"""Unit tests for :mod:`repro.datalog.database`."""

from __future__ import annotations

import pytest

from repro.datalog import Database, SchemaError
from repro.datalog.atoms import Atom, fact


class TestConstruction:
    def test_from_dict_infers_arity(self):
        database = Database.from_dict({"a": [(1, 2)], "c": [(3,)]})
        assert database.relation("a").arity == 2
        assert database.relation("c").arity == 1

    def test_from_dict_rejects_empty_relations(self):
        with pytest.raises(SchemaError):
            Database.from_dict({"a": []})

    def test_from_facts(self):
        database = Database.from_facts([fact("edge", (1, 2)), fact("edge", (2, 3))])
        assert len(database.relation("edge")) == 2

    def test_add_fact_atom_requires_ground(self):
        database = Database()
        with pytest.raises(SchemaError):
            database.add_fact_atom(Atom.of("edge", "X", 2))

    def test_declare_is_idempotent(self):
        database = Database()
        first = database.declare("a", 2)
        second = database.declare("a", 2)
        assert first is second
        with pytest.raises(SchemaError):
            database.declare("a", 3)

    def test_add_fact_creates_relation(self):
        database = Database()
        database.add_fact("a", (1, 2))
        assert database.has_relation("a")
        assert (1, 2) in database.relation("a")


class TestAccess:
    def test_relation_raises_on_unknown(self):
        with pytest.raises(SchemaError):
            Database().relation("nope")

    def test_relation_or_empty(self):
        database = Database()
        relation = database.relation_or_empty("ghost", 3)
        assert relation.arity == 3
        assert relation.is_empty()

    def test_names_and_len(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(1, 2)]})
        assert database.names() == {"a", "b"}
        assert len(database) == 2
        assert "a" in database


class TestWholeDatabaseOperations:
    def test_copy_is_deep(self):
        database = Database.from_dict({"a": [(1, 2)]})
        clone = database.copy()
        clone.add_fact("a", (3, 4))
        assert (3, 4) not in database.relation("a")

    def test_total_tuples_and_active_domain(self):
        database = Database.from_dict({"a": [(1, 2), (2, 3)], "c": [(9,)]})
        assert database.total_tuples() == 3
        assert database.active_domain() == {1, 2, 3, 9}

    def test_facts_round_trip(self):
        database = Database.from_dict({"a": [(1, 2)]})
        facts = database.facts()
        rebuilt = Database.from_facts(facts)
        assert rebuilt.relation("a").rows() == database.relation("a").rows()

    def test_merge(self):
        left = Database.from_dict({"a": [(1, 2)]})
        right = Database.from_dict({"a": [(3, 4)], "b": [(5, 6)]})
        merged = left.merge(right)
        assert len(merged.relation("a")) == 2
        assert len(merged.relation("b")) == 1
        # inputs untouched
        assert len(left.relation("a")) == 1

    def test_merge_rejects_arity_conflicts(self):
        left = Database.from_dict({"a": [(1, 2)]})
        right = Database.from_dict({"a": [(1, 2, 3)]})
        with pytest.raises(SchemaError):
            left.merge(right)


class _RecordingView:
    """Captures the phase protocol of ``Database.mutate``: order, effective deltas, DB state."""

    def __init__(self):
        self.events = []

    def _record(self, phase, database, changes):
        sizes = {name: len(database.relation(name)) for name in changes}
        self.events.append((phase, dict(changes), sizes))

    def before_delete(self, database, deletes):
        self._record("before_delete", database, deletes)

    def after_delete(self, database, deletes):
        self._record("after_delete", database, deletes)

    def before_insert(self, database, inserts):
        self._record("before_insert", database, inserts)

    def after_insert(self, database, inserts):
        self._record("after_insert", database, inserts)


class TestMutationHooksAndBulkOps:
    def test_remove_fact_mirrors_add_fact(self):
        database = Database.from_dict({"a": [(1, 2), (2, 3)]})
        assert database.remove_fact("a", (1, 2)) is True
        assert database.remove_fact("a", (1, 2)) is False
        assert database.remove_fact("missing", (1,)) is False
        assert database.relation("a").rows() == {(2, 3)}

    def test_insert_facts_reports_effective_delta(self):
        database = Database.from_dict({"a": [(1, 2)]})
        assert database.insert_facts("a", [(1, 2), (3, 4), (3, 4), (5, 6)]) == 2
        assert len(database.relation("a")) == 3

    def test_insert_facts_creates_relation(self):
        database = Database()
        assert database.insert_facts("fresh", [(1,), (2,)]) == 2
        assert database.relation("fresh").arity == 1

    def test_insert_facts_validates_arity_before_hooks_fire(self):
        database = Database.from_dict({"a": [(1, 2)]})
        view = _RecordingView()
        with pytest.raises(SchemaError):
            database.mutate(inserts={"a": [(3, 4), (1, 2, 3)]}, view=view)
        assert view.events == []  # no phase ran for the rejected batch
        with pytest.raises(SchemaError):
            database.insert_facts("a", [(3, 4), (1, 2, 3)])
        assert database.relation("a").rows() == {(1, 2)}

    def test_remove_facts_ignores_absent_rows(self):
        database = Database.from_dict({"a": [(1, 2), (2, 3)]})
        assert database.remove_facts("a", [(9, 9), (2, 3)]) == 1
        assert database.remove_facts("missing", [(1,)]) == 0

    def test_hooks_see_effective_deltas_around_the_mutation(self):
        database = Database.from_dict({"a": [(1, 2)]})
        view = _RecordingView()
        database.mutate(inserts={"a": [(1, 2), (3, 4)]}, view=view)
        database.mutate(deletes={"a": [(3, 4), (9, 9)]}, view=view)
        # every effective mutation runs all four phases once; an idle side gets {}
        assert view.events == [
            ("before_delete", {}, {}),
            ("after_delete", {}, {}),
            ("before_insert", {"a": ((3, 4),)}, {"a": 1}),  # old state, present row filtered
            ("after_insert", {"a": ((3, 4),)}, {"a": 2}),  # new state
            ("before_delete", {"a": ((3, 4),)}, {"a": 2}),  # rows still present
            ("after_delete", {"a": ((3, 4),)}, {"a": 1}),  # rows gone
            ("before_insert", {}, {}),
            ("after_insert", {}, {}),
        ]

    def test_one_mutation_fires_each_phase_once_for_every_relation(self):
        database = Database.from_dict({"a": [(1, 2), (3, 4)], "b": [(5,)]})
        view = _RecordingView()
        deleted, inserted = database.mutate(
            deletes={"a": [(1, 2), (9, 9)], "b": [(5,)], "ghost": [(1,)]},
            inserts={"a": [(1, 2), (3, 4), (7, 8)], "c": [(1, 1, 1)]},
            view=view,
        )
        assert deleted == {"a": ((1, 2),), "b": ((5,),)}
        # (1, 2) is deleted and re-inserted: deletes apply first
        assert inserted == {"a": ((1, 2), (7, 8)), "c": ((1, 1, 1),)}
        assert [event[0] for event in view.events] == [
            "before_delete", "after_delete", "before_insert", "after_insert",
        ]
        assert view.events[0][2] == {"a": 2, "b": 1}  # old state
        assert view.events[1][2] == {"a": 1, "b": 0}  # deletes applied
        assert view.events[2][2] == {"a": 1, "c": 0}  # inserts not yet applied
        assert view.events[3][2] == {"a": 3, "c": 1}  # both applied
        assert database.relation("a").rows() == {(1, 2), (3, 4), (7, 8)}

    def test_mutate_validates_every_insert_before_anything_changes(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(5,)]})
        view = _RecordingView()
        with pytest.raises(SchemaError, match="arity"):
            database.mutate(deletes={"b": [(5,)]}, inserts={"fresh": [(1,)], "a": [(1, 2, 3)]}, view=view)
        assert view.events == []
        assert database.relation("b").rows() == {(5,)}
        assert not database.has_relation("fresh")

    def test_noop_mutations_fire_no_hooks(self):
        database = Database.from_dict({"a": [(1, 2)]})
        view = _RecordingView()
        assert database.mutate(inserts={"a": [(1, 2)]}, deletes={"a": [(9, 9)], "ghost": [(1,)]}, view=view) == ({}, {})
        assert view.events == []

    def test_mutate_without_a_view_applies_the_same_rows(self):
        changes = {"deletes": {"a": [(1, 2), (9, 9)]}, "inserts": {"a": [(1, 2), (5, 6)], "c": [(1,)]}}
        watched = Database.from_dict({"a": [(1, 2), (3, 4)]})
        plain = watched.copy()
        assert plain.mutate(**changes) == watched.mutate(**changes, view=_RecordingView())
        assert plain.names() == watched.names() == {"a", "c"}
        assert all(plain.relation(name).rows() == watched.relation(name).rows() for name in plain.names())

    def test_phases_see_the_database_being_mutated_not_its_copies(self):
        database = Database.from_dict({"a": [(1, 2)]})
        clone = database.copy()
        view = _RecordingView()
        clone.mutate(inserts={"a": [(7, 8)]}, view=view)
        assert view.events[3] == ("after_insert", {"a": ((7, 8),)}, {"a": 2})
        assert database.relation("a").rows() == {(1, 2)}
        database.mutate(inserts={"a": [(5, 6)]})  # no view: nothing recorded
        assert len(view.events) == 4
        assert clone.relation("a").rows() == {(1, 2), (7, 8)}
