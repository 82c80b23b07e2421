"""Unit tests for :mod:`repro.datalog.relation`."""

from __future__ import annotations

import gc
from itertools import combinations, product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.datalog import SchemaError
from repro.datalog import relation as relation_module
from repro.datalog.relation import Relation


@pytest.fixture
def edges() -> Relation:
    return Relation("edge", 2, [(1, 2), (2, 3), (1, 3), (3, 1)])


class TestBasics:
    def test_len_iter_contains(self, edges):
        assert len(edges) == 4
        assert (1, 2) in edges
        assert (9, 9) not in edges
        assert set(edges) == {(1, 2), (2, 3), (1, 3), (3, 1)}

    def test_add_reports_novelty(self, edges):
        assert edges.add((5, 6)) is True
        assert edges.add((5, 6)) is False
        assert len(edges) == 5

    def test_add_all_counts_new(self, edges):
        assert edges.add_all([(1, 2), (7, 8), (8, 9)]) == 2

    def test_arity_enforced(self, edges):
        with pytest.raises(SchemaError):
            edges.add((1, 2, 3))

    def test_negative_arity_rejected(self):
        with pytest.raises(SchemaError):
            Relation("bad", -1)

    def test_discard(self, edges):
        assert edges.discard((1, 2)) is True
        assert (1, 2) not in edges
        assert edges.discard((1, 2)) is False  # idempotent

    def test_discard_all_counts_present(self, edges):
        assert edges.discard_all([(1, 2), (9, 9), (2, 3), (1, 2)]) == 2
        assert (1, 2) not in edges
        assert (2, 3) not in edges
        assert len(edges) == 2

    def test_discard_all_maintains_live_indexes(self, edges):
        assert edges.lookup({0: 1}) and edges.lookup({1: 3})  # build indexes
        edges.discard_all([(1, 2), (1, 3)])
        assert edges.lookup({0: 1}) == []
        assert set(edges.lookup({1: 3})) == {(2, 3)}

    def test_copy_is_independent(self, edges):
        clone = edges.copy()
        clone.add((9, 9))
        assert (9, 9) not in edges

    def test_is_empty(self):
        assert Relation("empty", 2).is_empty()

    def test_column_values(self, edges):
        assert edges.column_values(0) == {1, 2, 3}
        assert edges.column_values(1) == {1, 2, 3}

    def test_equality(self):
        assert Relation("r", 2, [(1, 2)]) == Relation("r", 2, [(1, 2)])
        assert Relation("r", 2, [(1, 2)]) != Relation("r", 2, [(1, 3)])


class TestLookup:
    def test_unrestricted_lookup_returns_everything(self, edges):
        assert set(edges.lookup({})) == set(edges)

    def test_single_column_lookup(self, edges):
        assert set(edges.lookup({0: 1})) == {(1, 2), (1, 3)}

    def test_two_column_lookup(self, edges):
        assert edges.lookup({0: 1, 1: 3}) == [(1, 3)]

    def test_missing_value_gives_empty(self, edges):
        assert edges.lookup({0: 42}) == []

    def test_out_of_range_column_rejected(self, edges):
        with pytest.raises(SchemaError):
            edges.lookup({5: 1})

    def test_index_stays_fresh_after_insert(self, edges):
        assert set(edges.lookup({0: 9})) == set()
        edges.add((9, 10))
        assert set(edges.lookup({0: 9})) == {(9, 10)}

    def test_project(self, edges):
        assert edges.project([0]) == {(1,), (2,), (3,)}
        assert edges.project([1, 0]) == {(2, 1), (3, 2), (3, 1), (1, 3)}


class TestLookupProperties:
    @given(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
        st.integers(0, 5),
        st.integers(0, 1),
    )
    def test_lookup_matches_filter_semantics(self, rows, value, column):
        relation = Relation("r", 2, rows)
        via_index = set(relation.lookup({column: value}))
        via_filter = {row for row in rows if row[column] == value}
        assert via_index == via_filter

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=20))
    def test_lookup_results_are_subsets_of_rows(self, rows):
        relation = Relation("r", 2, rows)
        for value in range(4):
            assert set(relation.lookup({0: value})) <= set(rows)


class TestDiscardKeepsIndexes:
    """``discard`` must surgically update index buckets, not drop every index."""

    def test_interleaved_add_discard_lookup(self, edges):
        assert set(edges.lookup({0: 1})) == {(1, 2), (1, 3)}  # builds the column-0 index
        edges.discard((1, 2))
        assert set(edges.lookup({0: 1})) == {(1, 3)}
        edges.add((1, 4))
        assert set(edges.lookup({0: 1})) == {(1, 3), (1, 4)}
        edges.discard((1, 3))
        edges.discard((1, 4))
        assert edges.lookup({0: 1}) == []
        edges.add((1, 2))
        assert edges.lookup({0: 1}) == [(1, 2)]

    def test_discard_updates_every_live_index(self, edges):
        edges.lookup({0: 1})
        edges.lookup({1: 3})
        edges.lookup({0: 1, 1: 3})
        edges.discard((1, 3))
        assert set(edges.lookup({0: 1})) == {(1, 2)}
        assert set(edges.lookup({1: 3})) == {(2, 3)}
        assert edges.lookup({0: 1, 1: 3}) == []

    def test_discard_absent_row_is_noop(self, edges):
        edges.lookup({0: 1})
        edges.discard((42, 42))
        assert set(edges.lookup({0: 1})) == {(1, 2), (1, 3)}
        assert len(edges) == 4

    @given(
        st.lists(
            st.tuples(st.booleans(), st.tuples(st.integers(0, 3), st.integers(0, 3))),
            max_size=60,
        )
    )
    def test_random_interleaving_matches_set_semantics(self, operations):
        relation = Relation("r", 2)
        reference = set()
        for is_add, row in operations:
            if is_add:
                relation.add(row)
                reference.add(row)
            else:
                relation.discard(row)
                reference.discard(row)
            # exercise lookups mid-stream so indexes exist and must stay fresh
            for column in (0, 1):
                assert set(relation.lookup({column: row[column]})) == {
                    r for r in reference if r[column] == row[column]
                }
        assert relation.rows() == reference


class TestClearAndProbe:
    def test_clear_empties_but_keeps_registered_indexes(self, edges):
        edges.lookup({0: 1})
        edges.clear()
        assert len(edges) == 0
        assert edges.lookup({0: 1}) == []
        edges.add((1, 7))  # must be visible through the surviving index
        assert edges.lookup({0: 1}) == [(1, 7)]

    def test_replace_rows_rebuilds_the_registered_indexes(self, edges):
        edges.lookup({0: 1})
        snapshot = edges.freeze()
        before = set(snapshot.rows())
        version = edges.version
        edges.replace_rows({(1, 7), (4, 4)})
        assert edges.rows() == {(1, 7), (4, 4)} and edges.version > version
        assert edges.lookup({0: 1}) == [(1, 7)]  # not the old contents' bucket
        assert edges.lookup({1: 4}) == [(4, 4)]  # an index first asked for afterwards
        edges.add((1, 8))
        assert sorted(edges.lookup({0: 1})) == [(1, 7), (1, 8)]
        assert snapshot.rows() == before and set(snapshot.lookup({0: 1})) <= before

    def test_probe_matches_lookup(self, edges):
        # single-column probes take the bare value (keys are stored unwrapped)
        assert set(edges.probe((0,), 1)) == set(edges.lookup({0: 1}))
        assert set(edges.probe((0, 1), (1, 3))) == set(edges.lookup({0: 1, 1: 3}))
        assert list(edges.probe((0,), 42)) == []

    def test_probe_rejects_out_of_range_columns(self, edges):
        with pytest.raises(SchemaError):
            edges.probe((5,), 1)


class TestBulkAddAll:
    """``add_all`` batches into the row set and extends each index once."""

    def test_bulk_insert_maintains_live_indexes(self, edges):
        edges.lookup({0: 1})
        edges.lookup({0: 1, 1: 2})
        assert edges.add_all([(1, 9), (4, 4), (1, 9), (1, 2)]) == 2
        assert set(edges.lookup({0: 1})) == {(1, 2), (1, 3), (1, 9)}
        assert edges.lookup({0: 4, 1: 4}) == [(4, 4)]
        assert len(edges) == 6

    def test_bulk_insert_validates_arity(self, edges):
        with pytest.raises(SchemaError):
            edges.add_all([(1, 2, 3)])

    def test_mid_batch_failure_keeps_indexes_consistent(self, edges):
        # rows inserted before a bad row trips validation must still be
        # visible through every registered index
        edges.lookup({0: 5})  # register the column-0 index
        with pytest.raises(SchemaError):
            edges.add_all([(5, 6), (7, 8, 9)])
        assert (5, 6) in edges
        assert edges.lookup({0: 5}) == [(5, 6)]

    def test_bulk_insert_into_unindexed_relation(self):
        relation = Relation("r", 2)
        assert relation.add_all([(1, 2), (3, 4)]) == 2
        assert set(relation.lookup({1: 4})) == {(3, 4)}

    def test_constructor_uses_bulk_path(self):
        relation = Relation("r", 1, [(1,), (2,), (1,)])
        assert len(relation) == 2


class TestCopyKeepsIndexes:
    def test_copy_preserves_index_registrations(self, edges):
        edges.lookup({0: 1})  # register and build the column-0 index
        clone = edges.copy()
        # the clone serves the same probe signature and stays maintained
        assert set(clone.probe((0,), 1)) == {(1, 2), (1, 3)}
        clone.add((1, 8))
        assert set(clone.probe((0,), 1)) == {(1, 2), (1, 3), (1, 8)}
        clone.discard((1, 2))
        assert set(clone.probe((0,), 1)) == {(1, 3), (1, 8)}

    def test_copy_indexes_are_independent(self, edges):
        edges.lookup({0: 1})
        clone = edges.copy()
        clone.add((1, 8))
        clone.discard((1, 3))
        assert set(edges.probe((0,), 1)) == {(1, 2), (1, 3)}
        assert set(edges.lookup({0: 1})) == {(1, 2), (1, 3)}


class TestMixedMutationIndexConsistency:
    """add / discard / clear / probe interleavings keep every index exact."""

    def test_add_discard_clear_probe_cycle(self):
        relation = Relation("r", 2)
        relation.add_all([(1, 2), (2, 3), (1, 3)])
        assert set(relation.probe((0,), 1)) == {(1, 2), (1, 3)}
        assert list(relation.probe((0, 1), (2, 3))) == [(2, 3)]
        relation.discard((1, 2))
        assert set(relation.probe((0,), 1)) == {(1, 3)}
        relation.clear()
        assert list(relation.probe((0,), 1)) == []
        assert list(relation.probe((0, 1), (2, 3))) == []
        # registered signatures survive the clear and see new batches
        relation.add_all([(1, 7), (5, 5)])
        relation.add((1, 9))
        assert set(relation.probe((0,), 1)) == {(1, 7), (1, 9)}
        assert list(relation.probe((0, 1), (5, 5))) == [(5, 5)]
        relation.discard((1, 7))
        relation.discard((1, 9))
        assert list(relation.probe((0,), 1)) == []


class TestFreezeSnapshots:
    """freeze(): O(1) immutable handles with copy-on-write isolation."""

    @pytest.fixture
    def edges(self):
        return Relation("a", 2, [(1, 2), (1, 3), (2, 3)])

    def test_frozen_handle_sees_the_freeze_instant(self, edges):
        snapshot = edges.freeze()
        assert snapshot.frozen and not edges.frozen
        assert snapshot.rows() == edges.rows()
        assert snapshot.name == "a" and snapshot.arity == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.add((9, 9)),
            lambda r: r.add_all([(9, 9)]),
            lambda r: r.union_update({(9, 9)}),
            lambda r: r.discard((1, 2)),
            lambda r: r.discard((77, 77)),  # even a no-op discard must raise
            lambda r: r.add((1, 2)),  # ... and so must re-inserting what is there
            lambda r: r.add_all([(1, 2)]),
            lambda r: r.union_update({(1, 2)}),
            lambda r: r.discard_all([(1, 2)]),
            lambda r: r.clear(),
            lambda r: r.replace_rows({(9, 9)}),
        ],
    )
    def test_mutating_a_frozen_snapshot_raises(self, edges, mutate):
        snapshot = edges.freeze()
        with pytest.raises(SchemaError, match="frozen snapshot"):
            mutate(snapshot)
        assert snapshot.rows() == {(1, 2), (1, 3), (2, 3)}

    def test_live_mutations_do_not_leak_into_the_snapshot(self, edges):
        edges.lookup({0: 1})  # register an index that the snapshot shares
        snapshot = edges.freeze()
        edges.add((5, 6))
        edges.discard((1, 2))
        edges.add_all([(7, 8)])
        edges.union_update({(8, 9)})
        assert snapshot.rows() == {(1, 2), (1, 3), (2, 3)}
        assert set(snapshot.lookup({0: 1})) == {(1, 2), (1, 3)}
        assert set(snapshot.probe((0,), 5)) == set()
        assert edges.rows() == {(1, 3), (2, 3), (5, 6), (7, 8), (8, 9)}
        assert set(edges.lookup({0: 1})) == {(1, 3)}

    def test_clear_detaches_without_corrupting_the_snapshot(self, edges):
        edges.lookup({0: 1})
        snapshot = edges.freeze()
        edges.clear()
        assert len(edges) == 0
        assert snapshot.rows() == {(1, 2), (1, 3), (2, 3)}
        assert set(snapshot.lookup({0: 1})) == {(1, 2), (1, 3)}
        # the live side keeps its registered signature across the clear
        edges.add((1, 9))
        assert set(edges.probe((0,), 1)) == {(1, 9)}

    def test_freeze_is_idempotent_and_repeated_freezes_share(self, edges):
        first = edges.freeze()
        assert first.freeze() is first
        second = edges.freeze()  # no mutation in between: another O(1) share
        assert second.rows() == first.rows()
        edges.add((9, 9))
        assert first.rows() == second.rows() == {(1, 2), (1, 3), (2, 3)}

    def test_lazy_index_build_on_frozen_is_allowed(self, edges):
        snapshot = edges.freeze()
        edges.add((1, 9))  # live detaches first
        # a probe signature never built before the freeze builds lazily
        assert set(snapshot.probe((1,), 3)) == {(1, 3), (2, 3)}
        assert snapshot.rows() == {(1, 2), (1, 3), (2, 3)}

    def test_copy_of_a_frozen_snapshot_is_mutable(self, edges):
        snapshot = edges.freeze()
        clone = snapshot.copy()
        assert not clone.frozen
        clone.add((9, 9))
        assert (9, 9) in clone and (9, 9) not in snapshot

    def test_refreezing_an_untouched_relation_returns_the_same_handle(self, edges):
        first = edges.freeze()
        assert set(first.probe((1,), 3)) == {(1, 3), (2, 3)}  # a reader's lazy index
        assert edges.freeze() is first
        assert (1,) in first._indexes  # ... survives the re-publication
        edges.add((9, 9))  # the detach drops the cached handle
        second = edges.freeze()
        assert second is not first
        assert edges.freeze() is second
        assert first.rows() == {(1, 2), (1, 3), (2, 3)}
        assert second.rows() == {(1, 2), (1, 3), (2, 3), (9, 9)}


class TestFullArityProbes:
    """Binding every column is row-set membership; no index is materialized."""

    def test_full_arity_signature_registers_no_index(self, edges):
        assert list(edges.probe((0, 1), (1, 3))) == [(1, 3)]
        assert list(edges.probe((0, 1), (3, 3))) == []
        assert edges.lookup({0: 1, 1: 3}) == [(1, 3)]
        assert (0, 1) not in edges._indexes
        edges.discard((1, 3))
        edges.add((3, 3))
        assert list(edges.probe((0, 1), (1, 3))) == []
        assert list(edges.probe((0, 1), (3, 3))) == [(3, 3)]

    def test_unary_relation_takes_the_bare_value(self):
        unary = Relation("u", 1, [(1,), (2,)])
        assert list(unary.probe((0,), 2)) == [(2,)]
        assert list(unary.probe((0,), 7)) == []
        assert unary.lookup({0: 1}) == [(1,)]
        assert not unary._indexes

    def test_hoisted_getter_matches_an_index_dicts_get(self, edges):
        # the generated kernels hoist ``_index_for(columns).get`` once per call
        get = edges._index_for((0, 1)).get
        assert list(get((2, 3), ())) == [(2, 3)]
        assert get((9, 9), ()) == ()
        assert get((9, 9)) is None


class TestDetachCopiesOnlyWhatIsTouched:
    """Regression guard (counts, not timings) for the per-bucket copy-on-write."""

    def test_adds_after_freeze_copy_only_the_buckets_they_touch(self):
        size = 100_000
        live = Relation("big", 2, ((i, i % 1000) for i in range(size)))
        live.probe((0,), 0)  # 100k single-row buckets
        live.probe((1,), 0)  # 1k hundred-row buckets
        snapshot = live.freeze()

        gc.collect()
        gc.disable()
        try:
            lists_before = sum(1 for obj in gc.get_objects() if type(obj) is list)
            live.add((5, size))       # new bucket under (1,), shared one under (0,)
            live.add((size, 7))       # the reverse
            lists_after = sum(1 for obj in gc.get_objects() if type(obj) is list)
        finally:
            gc.enable()
        assert lists_after - lists_before < 64

        touched = {(0,): {5, size}, (1,): {size, 7}}
        for columns, keys in touched.items():
            shared, ours = snapshot._indexes[columns], live._indexes[columns]
            assert ours is not shared
            assert all(ours[key] is bucket for key, bucket in shared.items() if key not in keys)
            assert all(ours[key] is not shared.get(key) for key in keys)
        assert set(snapshot.probe((0,), 5)) == {(5, 5)}
        assert set(live.probe((0,), 5)) == {(5, 5), (5, size)}
        assert len(snapshot.probe((1,), 7)) == 100 and len(live.probe((1,), 7)) == 101
        assert len(snapshot) == size and len(live) == size + 2


class TestNoOpWritesDoNotDetach:
    """A write that changes nothing leaves the published storage and handle alone."""

    @pytest.mark.parametrize(
        "write, returned",
        [
            (lambda r: r.add((1, 2)), False),
            (lambda r: r.add_all([(1, 2), (2, 3), (1, 2)]), 0),
            (lambda r: r.union_update({(1, 2), (1, 3)}), 0),
            (lambda r: r.discard((7, 7)), False),
        ],
    )
    @pytest.mark.parametrize("indexed", [False, True])
    def test_reinserting_present_rows_keeps_the_handle(self, write, returned, indexed):
        live = Relation("a", 2, [(1, 2), (1, 3), (2, 3)])
        if indexed:
            live.probe((0,), 1)
        snapshot = live.freeze()
        snapshot.probe((1,), 3)  # a reader's lazily built index
        version = live.version
        assert write(live) == returned
        assert live.freeze() is snapshot and (1,) in snapshot._indexes
        assert live._rows is snapshot._rows
        assert live.version == version
        assert live.storage_copies == live.storage_reclaims == 0

    def test_a_batch_detaches_at_its_first_new_row(self):
        live = Relation("a", 2, [(1, 2), (1, 3)])
        snapshot = live.freeze()
        assert live.add_all([(1, 2), (9, 9), (1, 3), (9, 9)]) == 1
        assert live._rows is not snapshot._rows
        assert snapshot.rows() == {(1, 2), (1, 3)}
        assert live.rows() == {(1, 2), (1, 3), (9, 9)}


class TestDetachReclaimsUnreadableStorage:
    """Counts, not timings: the steady-state detach takes a standby back."""

    SIZE = 100_000

    @pytest.fixture
    def live(self):
        live = Relation("big", 2, ((i, i % 1000) for i in range(self.SIZE)))
        live.probe((0,), 0)  # 100k single-row buckets
        live.probe((1,), 0)  # 1k hundred-row buckets
        return live

    def cycle(self, live, number):
        """``freeze -> add 2 rows``; returns the handle and what it must keep reading."""
        handle = live.freeze()
        live.add((5, self.SIZE + number))  # new bucket under (1,), shared under (0,)
        live.add((self.SIZE + number, 7))  # the reverse
        return handle, number

    def rows_before(self, number):
        """The relation's rows when cycle ``number`` began."""
        rows = {(i, i % 1000) for i in range(self.SIZE)}
        for earlier in range(number):
            rows |= {(5, self.SIZE + earlier), (self.SIZE + earlier, 7)}
        return rows

    @staticmethod
    def big_containers():
        return {
            id(obj)
            for obj in gc.get_objects()
            if type(obj) in (set, dict) and len(obj) > 1000
        }

    def measured_cycles(self, live, keep):
        """Ten cycles beside a client that holds on to the ``keep`` newest
        handles (so each detach finds them, and the one just published, alive)."""
        held = []
        for number in range(3):  # warm-up: the cold detaches copy
            held.append(self.cycle(live, number))
            del held[: len(held) - keep]
        gc.collect()
        gc.disable()
        try:
            known = self.big_containers()
            row_sets, new_lists = set(), []
            for number in range(3, 13):
                lists_before = sum(1 for obj in gc.get_objects() if type(obj) is list)
                held.append(self.cycle(live, number))
                del held[: len(held) - keep]
                new_lists.append(
                    sum(1 for obj in gc.get_objects() if type(obj) is list) - lists_before
                )
                row_sets.add(id(live._rows))
            fresh_big = self.big_containers() - known
        finally:
            gc.enable()
        return held, row_sets, new_lists, fresh_big

    @pytest.mark.parametrize("keep", [0, 1])
    def test_steady_state_allocates_nothing_the_size_of_the_relation(self, live, keep):
        # keep=1: a client still reading the epoch before the published one —
        # the second standby is there for exactly that
        held, row_sets, new_lists, fresh_big = self.measured_cycles(live, keep)
        assert not fresh_big
        assert max(new_lists) < 64
        assert len(row_sets) <= 3
        assert live.storage_copies <= 2 and live.storage_reclaims >= 10
        for handle, number in held:
            assert handle.rows() == self.rows_before(number)
        assert live.rows() == self.rows_before(13)
        assert len(live.probe((1,), 7)) == 113 and len(live.probe((0,), 5)) == 14

    def test_pinning_more_epochs_than_standbys_falls_back_to_the_copy(self, live):
        # the published epoch plus two older ones: nothing is ever free
        held, _row_sets, _new_lists, fresh_big = self.measured_cycles(live, 2)
        assert live.storage_reclaims == 0 and live.storage_copies == 13
        assert fresh_big
        for handle, number in held:
            expected = self.rows_before(number)
            assert handle.rows() == expected
            # ... and its own buckets, not a later epoch's
            assert len(handle.probe((1,), 7)) == 100 + number
            assert set(handle.probe((0,), 5)) == {row for row in expected if row[0] == 5}

    def test_a_released_pin_lets_the_detach_reclaim_again(self, live):
        pinned = [self.cycle(live, number) for number in range(2)]
        assert live.storage_copies == 2
        handle, _ = self.cycle(live, 2)  # both standbys pinned: copy once more
        assert (live.storage_copies, live.storage_reclaims) == (3, 0)
        del handle
        self.cycle(live, 3)
        assert (live.storage_copies, live.storage_reclaims) == (3, 1)
        for handle, number in pinned:
            assert handle.rows() == self.rows_before(number)

    def test_a_standby_whose_backlog_outgrows_the_relation_is_dropped(self):
        live = Relation("r", 1, [(i,) for i in range(10)])
        snapshot = live.freeze()
        for i in range(10, 20):
            live.add((i,))
        assert len(live._standbys) == 1 and len(live._standbys[0].backlog) == 10
        live.discard_all([(i,) for i in range(12)])  # 22 writes against 8 rows
        assert not live._standbys
        assert snapshot.rows() == {(i,) for i in range(10)}
        for i in range(100):  # written forever, never frozen again: nothing piles up
            live.add((100 + i,))
        assert not live._standbys

    def test_clear_and_replace_rows_drop_the_standbys(self):
        for refill in (lambda r: r.clear(), lambda r: r.replace_rows({(9, 9)})):
            live = Relation("a", 2, [(1, 2), (1, 3)])
            live.probe((0,), 1)
            first = live.freeze()
            live.add((2, 2))
            assert live._standbys
            refill(live)
            assert not live._standbys
            live.add((3, 3))
            del first
            second = live.freeze()
            live.add((4, 4))
            assert second.rows() == live.rows() - {(4, 4)}
            assert set(live.probe((0,), 4)) == {(4, 4)}

    def test_union_update_without_indexes_owns_what_it_logs(self):
        # semi-naive hands its spare delta's row set over and then clears it
        live = Relation("t", 2, [(1, 2)])
        first = live.freeze()
        passed = {(1, 2), (3, 4)}
        assert live.union_update(passed) == 1
        passed.clear()
        del first
        second = live.freeze()
        live.add((5, 6))  # reclaims the first storage and replays (3, 4) onto it
        assert live.storage_reclaims == 1
        assert live.rows() == {(1, 2), (3, 4), (5, 6)}
        assert second.rows() == {(1, 2), (3, 4)}


# ----------------------------------------------------------------------
# model-based: every mutation / freeze / copy / lazy-index interleaving
# ----------------------------------------------------------------------
def _index_key(columns, row):
    return row[columns[0]] if len(columns) == 1 else tuple(row[c] for c in columns)


def _relation_machine(arity: int):
    """A state machine checking relations of ``arity`` against plain sets."""
    domain = list(product(range(3), repeat=arity))
    signatures = [c for n in range(1, arity + 1) for c in combinations(range(arity), n)]
    row = st.sampled_from(domain)
    rows = st.lists(row, max_size=5)
    pick = st.integers(0, 1 << 16)

    def check(relation, model, signatures_to_probe):
        assert relation.rows() == model and len(relation) == len(model)
        for columns in signatures_to_probe:
            expected = {}
            for member in model:
                expected.setdefault(_index_key(columns, member), []).append(member)
            for key in {_index_key(columns, member) for member in domain}:
                assert sorted(relation.probe(columns, key)) == sorted(expected.get(key, []))

    class RelationMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            #: ``(relation, model)`` pairs the rules may write to
            self.mutable = [(Relation("r", arity), set())]
            #: every snapshot published and not yet released, with the rows it
            #: was born with
            self.frozen = []
            #: ``id(relation) -> (version, rows)`` as of the previous step
            self.seen = {}

        def _writable(self, which):
            return self.mutable[which % len(self.mutable)]

        @rule(which=pick, new=row)
        def add(self, which, new):
            relation, model = self._writable(which)
            assert relation.add(new) == (new not in model)
            model.add(new)

        @rule(which=pick, batch=rows)
        def add_all(self, which, batch):
            relation, model = self._writable(which)
            assert relation.add_all(batch) == len(set(batch) - model)
            model.update(batch)

        @rule(which=pick, batch=rows)
        def union_update(self, which, batch):
            relation, model = self._writable(which)
            assert relation.union_update(set(batch)) == len(set(batch) - model)
            model.update(batch)

        @rule(which=pick, old=row)
        def discard(self, which, old):
            relation, model = self._writable(which)
            assert relation.discard(old) == (old in model)
            model.discard(old)

        @rule(which=pick, batch=rows)
        def discard_all(self, which, batch):
            relation, model = self._writable(which)
            assert relation.discard_all(batch) == len(set(batch) & model)
            model.difference_update(batch)

        @rule(which=pick)
        def clear(self, which):
            relation, model = self._writable(which)
            relation.clear()
            model.clear()

        @rule(which=pick)
        def freeze(self, which):
            relation, model = self._writable(which)
            snapshot = relation.freeze()
            assert snapshot.frozen and snapshot.version == relation.version
            self.frozen.append((snapshot, frozenset(model)))

        @precondition(lambda self: self.frozen)
        @rule(which=pick, and_older=st.booleans())
        def release(self, which, and_older):
            """Readers let go of a snapshot (or of it and everything published
            before it, as readers moving on do).  Nothing else refers to a
            handle, so its storage becomes reclaimable right here, no ``gc``."""
            index = which % len(self.frozen)
            del self.frozen[0 if and_older else index : index + 1]

        @rule(which=pick, batch=rows, old=row, keep=st.integers(0, 2))
        def commit(self, which, batch, old, keep):
            """One round of the serving loop in one step — a batch lands, the
            result is published, readers move on to it (all but the ``keep``
            newest of the earlier snapshots are let go) — so that runs of
            them reach the steady state the single rules seldom line up for."""
            relation, model = self._writable(which)
            relation.add_all(batch)
            model.update(batch)
            if old not in batch:  # (so ``version`` moves only if the contents do)
                relation.discard(old)
                model.discard(old)
            self.frozen.append((relation.freeze(), frozenset(model)))
            del self.frozen[: max(0, len(self.frozen) - 1 - keep)]

        @rule(which=pick, of_snapshot=st.booleans())
        def copy(self, which, of_snapshot):
            if len(self.mutable) == 3:
                return  # enough writable relations to interleave
            pool = self.frozen if of_snapshot and self.frozen else self.mutable
            relation, model = pool[which % len(pool)]
            self.mutable.append((relation.copy(), set(model)))

        @rule(which=pick, on_snapshot=st.booleans(), columns=st.sampled_from(signatures))
        def probe(self, which, on_snapshot, columns):
            """Registers ``columns`` lazily, on one side of a freeze only."""
            pool = self.frozen if on_snapshot and self.frozen else self.mutable
            relation, model = pool[which % len(pool)]
            check(relation, model, [columns])

        @invariant()
        def every_relation_equals_its_model(self):
            for relation, model in self.mutable + self.frozen:
                # only signatures already registered, so it stays the probe
                # rule's decision which side of a freeze builds an index and
                # when; the full-arity signature never registers one
                check(relation, model, [*relation._indexes, signatures[-1]])
            for relation, model in self.mutable:
                # ``version`` moves exactly when the contents do
                version, rows = self.seen.get(id(relation), (relation.version, model))
                assert (relation.version != version) == (model != rows)
                self.seen[id(relation)] = (relation.version, frozenset(model))

        def teardown(self):
            for relation, model in self.mutable + self.frozen:
                check(relation, model, signatures)

    RelationMachine.__name__ = f"RelationMachineArity{arity}"
    return RelationMachine


#: the example budget is the active Hypothesis profile's (``tests/conftest.py``)
_STATEFUL = settings(stateful_step_count=40, deadline=None)
TestRelationModelArity1 = _relation_machine(1).TestCase
TestRelationModelArity1.settings = _STATEFUL
TestRelationModelArity2 = _relation_machine(2).TestCase
TestRelationModelArity2.settings = _STATEFUL
TestRelationModelArity3 = _relation_machine(3).TestCase
TestRelationModelArity3.settings = _STATEFUL


class TestPlantedStorageDefectsTurnTheMachineRed:
    """The ``release`` rule makes the machine reach the reclaim path: each way
    of getting the catch-up wrong must fail it."""

    @staticmethod
    def skip_discards(monkeypatch):
        honest = Relation._log
        monkeypatch.setattr(
            Relation, "_log", lambda self, added, rows: added and honest(self, added, rows)
        )

    @staticmethod
    def write_buckets_in_place(monkeypatch):
        honest = Relation._detach_for_mutation

        def detach(self):
            reclaims = self.storage_reclaims
            honest(self)
            if self.storage_reclaims != reclaims:
                # "these buckets are mine": they are not, other storages share them
                self._owned = {columns: set(index) for columns, index in self._indexes.items()}

        monkeypatch.setattr(Relation, "_detach_for_mutation", detach)

    @staticmethod
    def skip_the_index_catch_up(monkeypatch):
        detach, keys, replaying = Relation._detach_for_mutation, relation_module._keys, []

        def detach_noting_it(self):
            replaying.append(self)
            try:
                detach(self)
            finally:
                replaying.pop()

        def no_keys_while_replaying(columns, rows):
            # the taken-back row set catches up, its index keys do not
            return set() if replaying else keys(columns, rows)

        monkeypatch.setattr(Relation, "_detach_for_mutation", detach_noting_it)
        monkeypatch.setattr(relation_module, "_keys", no_keys_while_replaying)

    @staticmethod
    def ignore_live_handles(monkeypatch):
        class EveryHandleLooksDead:
            @staticmethod
            def ref(handle):
                return lambda: None

        monkeypatch.setattr(relation_module, "weakref", EveryHandleLooksDead)

    @staticmethod
    def filter_shared_buckets_in_place(monkeypatch):
        def drop_in_place(columns, index, owned, gone):
            for key in relation_module._keys(columns, gone):
                bucket = index[key]
                bucket[:] = [row for row in bucket if row not in gone]  # "mine": a snapshot may share it
                if not bucket:
                    del index[key]

        monkeypatch.setattr(relation_module, "_drop_rows", drop_in_place)

    @pytest.mark.parametrize(
        "plant",
        [
            "skip_discards",
            "write_buckets_in_place",
            "skip_the_index_catch_up",
            "ignore_live_handles",
            "filter_shared_buckets_in_place",
        ],
    )
    def test_planted_defect_is_caught(self, monkeypatch, plant):
        getattr(self, plant)(monkeypatch)
        # stops at the first failing example (typically within the first
        # hundred); no shrinking, no example database
        budget = settings(_STATEFUL, max_examples=2000, database=None, phases=(Phase.generate,))
        with pytest.raises(AssertionError):
            run_state_machine_as_test(_relation_machine(2), settings=budget)
