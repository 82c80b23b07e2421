"""Unit tests for the durable storage layer and the flush-failure bugfixes.

Covers the wire format (tagged values, CRC frames, packed rows), the
segmented WAL (torn tails end replay, reset drops covered segments), atomic
snapshots (corrupt-newest fallback), the ``DurableStore`` orchestration
(genesis, logging, compaction, idempotent replay, crash injection), the
service-level persist/reopen cycle, and the PR's satellite fixes:
per-waiter ``FlushError`` instances, ``close()`` surfacing a stuck flusher,
post-close consistency, and ``as_rows`` input validation.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, DatalogService, Relation
from repro.datalog import SchemaError
from repro.engine.domain import Domain
from repro.faults import FaultAction, FaultPlan, inject
from repro.incremental.session import as_rows
from repro.service import FlushError, FlushPolicy, ServiceClosed
from repro.storage import (
    CorruptSnapshotError,
    DurableStore,
    SimulatedCrash,
    StorageConfig,
    StorageError,
    WriteAheadLog,
    frame,
    load_latest_snapshot,
    segment_files,
    snapshot_files,
    split_frames,
    write_snapshot,
)
from repro.storage.format import Reader, Writer

TC = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n"

FAST = FlushPolicy(max_batch=1, max_delay_seconds=0.0)


def fast_config(**overrides) -> StorageConfig:
    defaults = {"fsync": False, "snapshot_interval": 10_000}
    defaults.update(overrides)
    return StorageConfig(**defaults)


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestValueCodec:
    def test_scalars_round_trip(self):
        values = [
            0,
            -1,
            2**62,
            2**100,  # bigint path
            -(2**100),
            3.14,
            "hello",
            "",
            b"\x00\xffbytes",
            True,
            False,
            None,
            ("pickled", frozenset({1})),  # pickle fallback
        ]
        writer = Writer()
        writer.values(values)
        decoded = Reader(writer.getvalue()).values()
        assert decoded == values
        # bool must survive as bool, not collapse into int
        assert decoded[9] is True and decoded[10] is False

    def test_unknown_tag_is_an_error(self):
        with pytest.raises(StorageError, match="tag"):
            Reader(b"\x01\x00\x00\x00Z").values()

    def test_truncated_payload_is_an_error(self):
        writer = Writer()
        writer.values(["abcdef"])
        with pytest.raises(StorageError, match="truncated"):
            Reader(writer.getvalue()[:-3]).values()


class TestFrames:
    def test_round_trip_and_clean_flag(self):
        data = frame(b"one") + frame(b"two") + frame(b"three")
        payloads, clean = split_frames(data)
        assert payloads == [b"one", b"two", b"three"]
        assert clean

    def test_torn_tail_ends_the_scan(self):
        data = frame(b"intact") + frame(b"torn-away")[:-4]
        payloads, clean = split_frames(data)
        assert payloads == [b"intact"]
        assert not clean

    def test_bit_flip_fails_the_checksum(self):
        data = bytearray(frame(b"payload") + frame(b"later"))
        data[10] ^= 0x40  # inside the first payload
        payloads, clean = split_frames(bytes(data))
        assert payloads == []
        assert not clean


class TestPackedRows:
    def test_round_trip_through_a_domain(self):
        domain = Domain()
        relation = Relation.from_valid_rows("r", 2, {("a", 1), ("b", 2), ("a", 2)})
        count, packed = relation.packed_rows(domain.intern)
        assert count == 3 and len(packed) == 3 * 2 * 8
        rebuilt = Relation.from_packed_rows("r", 2, count, packed, domain.decode)
        assert rebuilt.rows() == relation.rows()

    def test_zero_arity_relation(self):
        domain = Domain()
        relation = Relation.from_valid_rows("t", 0, {()})
        count, packed = relation.packed_rows(domain.intern)
        assert (count, packed) == (1, b"")
        assert Relation.from_packed_rows("t", 0, 1, b"", domain.decode).rows() == {()}
        assert Relation.from_packed_rows("t", 0, 0, b"", domain.decode).rows() == set()

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(Exception, match="bytes"):
            Relation.from_packed_rows("r", 2, 3, b"\x00" * 8, Domain().decode)


class TestDomainPersistence:
    def test_export_and_extend_round_trip(self):
        original = Domain()
        for value in ("x", 7, "y", 2.5):
            original.intern(value)
        restored = Domain()
        restored.extend_values(original.export_values(0))
        assert len(restored) == 4
        for code in range(4):
            assert restored.decode(code) == original.decode(code)
        assert restored.intern("x") == original.intern("x")

    def test_incremental_export(self):
        domain = Domain()
        domain.intern("a")
        marker = len(domain)
        domain.intern("b")
        domain.intern("c")
        assert domain.export_values(marker) == ["b", "c"]

    def test_duplicate_extension_is_rejected(self):
        domain = Domain()
        domain.intern("dup")
        with pytest.raises(ValueError, match="already interned"):
            domain.extend_values(["dup"])


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(0)
        wal.append(b"first")
        wal.append(b"second")
        wal.close()
        assert list(WriteAheadLog(tmp_path, fsync=False).replay()) == [b"first", b"second"]

    def test_torn_tail_of_the_newest_segment_ends_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(0)
        wal.append(b"alpha")
        wal.append(b"beta")
        wal.close()
        only = segment_files(tmp_path)[0]
        only.write_bytes(only.read_bytes()[:-4])  # cut "beta" mid-frame
        assert list(WriteAheadLog(tmp_path, fsync=False).replay()) == [b"alpha"]

    def test_torn_sealed_tail_is_skipped_and_later_segments_replay(self, tmp_path):
        # segment 1 ends in a torn append: that record was never acknowledged
        # (fsync-before-acknowledge), and the next process life — which tore
        # it off during recovery — appended *acknowledged* records to segment
        # 2.  Replay must skip the tear and keep going, or those durable,
        # acknowledged records are silently lost.
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(0)
        wal.append(b"alpha")
        wal.append(b"beta")
        wal.append(b"torn-away")
        wal.close()
        first = segment_files(tmp_path)[0]
        first.write_bytes(first.read_bytes()[:-4])  # cut "torn-away" mid-frame
        wal2 = WriteAheadLog(tmp_path, fsync=False)
        wal2.start_segment(2)
        wal2.append(b"gamma")
        wal2.close()
        assert len(segment_files(tmp_path)) == 2
        assert list(WriteAheadLog(tmp_path, fsync=False).replay()) == [
            b"alpha",
            b"beta",
            b"gamma",
        ]

    def test_wide_sequence_numbers_are_found_and_sort_numerically(self, tmp_path):
        # lexicographically "1000000" sorts before "999999"; segment order
        # (and _next_sequence) must parse the fields, not compare strings
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(7)
        wal.append(b"older")
        wal.close()
        seg = segment_files(tmp_path)[0]
        seg.rename(seg.with_name(f"wal-{7:016d}-999999.log"))
        wal2 = WriteAheadLog(tmp_path, fsync=False)
        assert wal2._next_sequence() == 1_000_000
        wal2.start_segment(7)
        wal2.append(b"newer")
        wal2.close()
        assert [path.name for path in segment_files(tmp_path)] == [
            f"wal-{7:016d}-999999.log",
            f"wal-{7:016d}-1000000.log",
        ]
        assert list(WriteAheadLog(tmp_path, fsync=False).replay()) == [
            b"older",
            b"newer",
        ]

    def test_reset_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(0)
        wal.append(b"old")
        wal.reset(5)
        wal.append(b"new")
        wal.close()
        assert len(segment_files(tmp_path)) == 1
        assert list(WriteAheadLog(tmp_path, fsync=False).replay()) == [b"new"]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def _write(self, directory, epoch, values=("v",)):
        return write_snapshot(
            directory,
            epoch=epoch,
            program_text="p(X) :- q(X).",
            values=list(values),
            relations=[("q", 1, 1, (0).to_bytes(8, "little", signed=True))],
            fsync=False,
        )

    def test_round_trip(self, tmp_path):
        self._write(tmp_path, epoch=3)
        data = load_latest_snapshot(tmp_path)
        assert data.epoch == 3
        assert data.program_text == "p(X) :- q(X)."
        assert data.values == ["v"]
        assert data.relations == [("q", 1, 1, b"\x00" * 8)]

    def test_new_snapshot_supersedes_and_removes_old(self, tmp_path):
        self._write(tmp_path, epoch=1)
        self._write(tmp_path, epoch=9)
        assert [path.name for path in snapshot_files(tmp_path)] == [
            "snapshot-0000000000000009.snap"
        ]
        assert load_latest_snapshot(tmp_path).epoch == 9

    def test_corrupt_newest_falls_back_to_older_intact(self, tmp_path):
        older = self._write(tmp_path, epoch=1)
        saved = older.read_bytes()
        newest = self._write(tmp_path, epoch=2)  # prunes the epoch-1 file
        older.write_bytes(saved)  # restore it, as a crash mid-prune would leave
        newest.write_bytes(newest.read_bytes()[:-6])  # tear the newest
        assert load_latest_snapshot(tmp_path).epoch == 1

    def test_every_snapshot_corrupt_raises(self, tmp_path):
        path = self._write(tmp_path, epoch=4)
        path.write_bytes(b"garbage")
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            load_latest_snapshot(tmp_path)

    def test_empty_directory_is_none(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestDurableStore:
    def _seeded(self, tmp_path, **config):
        store = DurableStore(tmp_path, fast_config(**config))
        database = Database()
        database.declare("edge", 2).add_all([(1, 2), (2, 3)])
        store.attach(TC, database, 0)
        return store, database

    def test_fresh_directory_recovers_none(self, tmp_path):
        assert DurableStore(tmp_path, fast_config()).recover() is None

    def test_genesis_log_recover(self, tmp_path):
        store, _db = self._seeded(tmp_path)
        store.log_batch(1, [("insert", "edge", [(3, "x")])])
        store.log_batch(2, [("delete", "edge", [(1, 2)]), ("insert", "edge", [(9, 9)])])
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 2
        assert recovered.snapshot_epoch == 0
        assert recovered.records_replayed == 2
        assert recovered.program_text == TC
        assert recovered.database.relation("edge").rows() == {(2, 3), (3, "x"), (9, 9)}

    def test_replay_is_idempotent(self, tmp_path):
        store, _db = self._seeded(tmp_path)
        store.log_batch(1, [("insert", "edge", [(7, 8)])])
        store.log_batch(2, [("delete", "edge", [(2, 3)])])
        store.close()
        probe = DurableStore(tmp_path, fast_config())
        recovered = probe.recover()
        before = recovered.database.relation("edge").rows()
        epoch, replayed = probe.replay_into(recovered.database, recovered.snapshot_epoch)
        assert epoch == recovered.epoch == 2
        assert recovered.database.relation("edge").rows() == before

    def test_compaction_resets_the_wal(self, tmp_path):
        store, database = self._seeded(tmp_path, snapshot_interval=2)
        store.log_batch(1, [("insert", "edge", [(5, 6)])])
        database.insert_facts("edge", [(5, 6)])
        assert not store.should_compact()
        store.log_batch(2, [("insert", "edge", [(6, 7)])])
        database.insert_facts("edge", [(6, 7)])
        assert store.should_compact()
        store.compact(2, database.relations())
        assert store.stats.compactions == 1
        assert len(segment_files(tmp_path)) == 1  # fresh segment only
        store.log_batch(3, [("delete", "edge", [(1, 2)])])
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.snapshot_epoch == 2
        assert recovered.records_replayed == 1  # only the post-compaction record
        assert recovered.epoch == 3
        assert recovered.database.relation("edge").rows() == {(2, 3), (5, 6), (6, 7)}

    def test_stale_precompaction_records_are_skipped(self, tmp_path):
        """Records at or below the snapshot epoch replay as no-ops."""
        store, database = self._seeded(tmp_path)
        store.log_batch(1, [("insert", "edge", [(5, 6)])])
        database.insert_facts("edge", [(5, 6)])
        # covering snapshot, but a crash "before segment deletion": write the
        # snapshot without resetting the WAL
        store._write_snapshot(1, database.relations())
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.snapshot_epoch == 1
        assert recovered.records_replayed == 0
        assert recovered.database.relation("edge").rows() == {(1, 2), (2, 3), (5, 6)}

    def test_crash_before_append_leaves_nothing(self, tmp_path):
        store, _db = self._seeded(tmp_path)
        store.crash_before_append = 2
        store.log_batch(1, [("insert", "edge", [(4, 4)])])
        with pytest.raises(SimulatedCrash):
            store.log_batch(2, [("insert", "edge", [(5, 5)])])
        with pytest.raises(StorageError, match="dead"):
            store.log_batch(3, [("insert", "edge", [(6, 6)])])
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 1
        assert (4, 4) in recovered.database.relation("edge").rows()
        assert (5, 5) not in recovered.database.relation("edge").rows()

    def test_crash_after_append_is_durable(self, tmp_path):
        store, _db = self._seeded(tmp_path)
        store.crash_after_append = 1
        with pytest.raises(SimulatedCrash):
            store.log_batch(1, [("insert", "edge", [(4, 4)])])
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 1
        assert (4, 4) in recovered.database.relation("edge").rows()

    def test_acknowledged_records_survive_an_earlier_torn_tail(self, tmp_path):
        """The review scenario: tear segment A's tail, append to segment B.

        Recovery drops the torn record and opens a new segment; records
        acknowledged there are durable and a *second* recovery must replay
        them — a torn sealed tail must not swallow the later segments.
        """
        store, _db = self._seeded(tmp_path)
        store.log_batch(1, [("insert", "edge", [(4, 4)])])
        store.log_batch(2, [("insert", "edge", [(5, 5)])])
        store.close()
        last = segment_files(tmp_path)[-1]
        last.write_bytes(last.read_bytes()[:-1])  # record 2 tears mid-append

        second = DurableStore(tmp_path, fast_config())
        recovered = second.recover()
        assert recovered.epoch == 1  # the torn record never happened
        assert (5, 5) not in recovered.database.relation("edge").rows()
        second.attach(TC, recovered.database, recovered.epoch)
        second.log_batch(2, [("insert", "edge", [(6, 6)])])  # acknowledged
        second.close()

        final = DurableStore(tmp_path, fast_config()).recover()
        assert final.epoch == 2
        assert final.records_replayed == 2
        assert final.database.relation("edge").rows() == {
            (1, 2),
            (2, 3),
            (4, 4),
            (6, 6),
        }

    def test_wal_without_snapshot_is_corrupt(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.start_segment(0)
        wal.append(b"orphan")
        wal.close()
        with pytest.raises(StorageError, match="no snapshot"):
            DurableStore(tmp_path, fast_config()).recover()


class TestStorageErrorPaths:
    """Injected disk failures: torn appends, fsync faults, snapshot faults."""

    def _seeded(self, tmp_path, **config):
        store = DurableStore(tmp_path, fast_config(**config))
        database = Database()
        database.declare("edge", 2).add_all([(1, 2), (2, 3)])
        store.attach(TC, database, 0)
        return store, database

    def test_enospc_tears_the_frame_and_recovery_drops_it(self, tmp_path):
        """ENOSPC mid-frame: partial bytes stay on disk, replay skips them."""
        store, _db = self._seeded(tmp_path)
        segment = segment_files(tmp_path)[-1]
        empty_size = segment.stat().st_size
        with inject(FaultPlan().at("wal.append", 1, FaultAction.torn())):
            with pytest.raises(StorageError, match="append failed") as info:
                store.log_batch(1, [("insert", "edge", [(4, 4)])])
        cause = info.value.__cause__
        assert isinstance(cause, OSError)
        assert store.failure is not None
        # the torn bytes really are in the file — a half-written frame
        assert segment.stat().st_size > empty_size
        with pytest.raises(StorageError, match="dead"):
            store.log_batch(2, [("insert", "edge", [(5, 5)])])
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 0  # the torn record never happened
        assert (4, 4) not in recovered.database.relation("edge").rows()

    def test_revive_reopens_a_fresh_segment_after_a_torn_append(self, tmp_path):
        """revive(): appends never continue after a possibly-torn tail."""
        store, _db = self._seeded(tmp_path)
        with inject(FaultPlan().at("wal.append", 1, FaultAction.torn())):
            with pytest.raises(StorageError):
                store.log_batch(1, [("insert", "edge", [(4, 4)])])
        torn_segment = segment_files(tmp_path)[-1]
        store.revive(0)
        assert store.failure is None
        assert store.stats.revivals == 1
        assert segment_files(tmp_path)[-1] != torn_segment
        store.log_batch(1, [("insert", "edge", [(4, 4)])])
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 1
        assert (4, 4) in recovered.database.relation("edge").rows()

    def test_fsync_failure_after_a_complete_write_is_retryable(self, tmp_path):
        """The frame is fully written when fsync fails; a revived re-append
        duplicates it and replay's epoch guard makes the duplicate a no-op."""
        store, _db = self._seeded(tmp_path, fsync=True)
        batch = [("insert", "edge", [(4, 4)])]
        with inject(FaultPlan().at("wal.fsync", 1, FaultAction.eio())):
            with pytest.raises(StorageError, match="append failed") as info:
                store.log_batch(1, batch)
        assert isinstance(info.value.__cause__, OSError)
        store.revive(0)
        store.log_batch(1, batch)  # the retry a RetryPolicy would issue
        store.close()
        recovered = DurableStore(tmp_path, fast_config(fsync=True)).recover()
        assert recovered.epoch == 1
        assert (4, 4) in recovered.database.relation("edge").rows()

    def test_snapshot_write_failure_postpones_compaction(self, tmp_path):
        """A transient snapshot fault leaves the store alive, WAL-only."""
        store, database = self._seeded(tmp_path, snapshot_interval=1)
        store.log_batch(1, [("insert", "edge", [(4, 4)])])
        database.insert_facts("edge", [(4, 4)])
        assert store.should_compact()
        with inject(FaultPlan().at("snapshot.write", 1, FaultAction.eio())):
            with pytest.raises(StorageError, match="postponed") as info:
                store.compact(1, database.relations())
        assert isinstance(info.value.__cause__, OSError)
        assert store.failure is None  # alive: WAL-only fallback
        assert store.should_compact()  # the backlog still wants compacting
        store.log_batch(2, [("insert", "edge", [(5, 5)])])  # appends still work
        database.insert_facts("edge", [(5, 5)])
        store.compact(2, database.relations())  # next attempt succeeds
        assert store.stats.compactions == 1
        store.close()
        recovered = DurableStore(tmp_path, fast_config()).recover()
        assert recovered.epoch == 2
        assert recovered.snapshot_epoch == 2
        assert (5, 5) in recovered.database.relation("edge").rows()

    def test_revive_refuses_a_simulated_crash(self, tmp_path):
        store, _db = self._seeded(tmp_path)
        store.crash_before_append = 1
        with pytest.raises(SimulatedCrash):
            store.log_batch(1, [("insert", "edge", [(4, 4)])])
        with pytest.raises(StorageError, match="not recoverable"):
            store.revive(0)
        assert store.failure is not None
        store.close()


# ----------------------------------------------------------------------
# the service, made durable
# ----------------------------------------------------------------------
class TestServicePersistence:
    def _open(self, tmp_path, program=None, **config):
        return DatalogService.open(
            tmp_path,
            program,
            storage_config=fast_config(**config),
            flush_policy=FAST,
        )

    def test_persist_and_reopen(self, tmp_path):
        service = self._open(tmp_path, TC)
        for edge in [(1, 2), (2, 3), (3, 4)]:
            service.insert("edge", edge, wait=True)
        service.delete("edge", (1, 2), wait=True)
        answers = service.query("path(X, Y)?").answers
        epoch = service.epoch
        service.close()

        reopened = self._open(tmp_path)
        assert reopened.epoch == epoch == 4
        assert reopened.query("path(X, Y)?").answers == answers
        assert str(reopened.session.program) == str(service.session.program)
        reopened.insert("edge", (4, 5), wait=True)
        assert reopened.epoch == 5
        reopened.close()

    def test_compaction_happens_under_load(self, tmp_path):
        service = self._open(tmp_path, TC, snapshot_interval=3)
        for index in range(8):
            service.insert("edge", (index, index + 1), wait=True)
        assert service.storage_stats.compactions >= 2
        final = service.query("path(X, Y)?").answers
        service.close()
        reopened = self._open(tmp_path)
        assert reopened.epoch == 8
        assert reopened.query("path(X, Y)?").answers == final
        reopened.close()

    def test_fresh_directory_requires_a_program(self, tmp_path):
        with pytest.raises(ValueError, match="program"):
            DatalogService.open(tmp_path)

    def test_explicit_database_over_existing_state_is_refused(self, tmp_path):
        # silently starting a second history would open a low-epoch WAL
        # segment whose records a later recovery's epoch guard drops
        service = self._open(tmp_path, TC)
        service.insert("edge", (1, 2), wait=True)
        service.close()
        fresh = Database()
        fresh.declare("edge", 2).add_all([(9, 9)])
        with pytest.raises(StorageError, match="already holds"):
            DatalogService(
                TC, database=fresh, storage=tmp_path, storage_config=fast_config()
            )
        # recovery (no explicit database) is still the supported reopen path
        reopened = self._open(tmp_path)
        assert reopened.epoch == 1
        assert reopened.query("path(X, Y)?").answers == {(1, 2)}
        reopened.close()

    def test_explicit_database_over_a_fresh_directory_still_works(self, tmp_path):
        seeded = Database()
        seeded.declare("edge", 2).add_all([(1, 2)])
        service = DatalogService(
            TC,
            database=seeded,
            storage=tmp_path,
            storage_config=fast_config(),
            flush_policy=FAST,
        )
        service.insert("edge", (2, 3), wait=True)
        service.close()
        reopened = self._open(tmp_path)
        assert reopened.query("path(X, Y)?").answers == {(1, 2), (2, 3), (1, 3)}
        reopened.close()

    def test_storage_failure_poisons_writes_but_not_reads(self, tmp_path):
        service = self._open(tmp_path, TC)
        service.insert("edge", (1, 2), wait=True)
        service.storage.crash_before_append = 2
        with pytest.raises(FlushError) as info:
            service.insert("edge", (2, 3), wait=True)
        assert isinstance(info.value.__cause__, SimulatedCrash)
        assert isinstance(service.storage_failed, SimulatedCrash)
        # the failed batch stays unpublished; reads keep serving epoch 1
        assert service.epoch == 1
        assert service.query("path(X, Y)?").answers == {(1, 2)}
        # later writes are refused outright: disk would diverge from memory
        with pytest.raises(FlushError, match="refuses"):
            service.insert("edge", (3, 4), wait=True)
        service.close()
        recovered = self._open(tmp_path)
        assert recovered.epoch == 1
        assert recovered.query("path(X, Y)?").answers == {(1, 2)}
        recovered.close()


# ----------------------------------------------------------------------
# satellite fixes: flush failures, close(), as_rows
# ----------------------------------------------------------------------
class TestFlushFailurePropagation:
    def test_each_waiter_gets_its_own_exception(self):
        service = DatalogService(TC, flush_policy=FAST)
        try:
            ticket = service.insert("edge", (1, 2, 3))  # arity error at flush
            outcomes = []
            lock = threading.Lock()

            def wait():
                try:
                    ticket.wait(timeout=10)
                except FlushError as exc:
                    with lock:
                        outcomes.append(exc)

            threads = [threading.Thread(target=wait) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(outcomes) == 4
            # distinct exception objects, one per waiter, sharing one cause
            assert len({id(exc) for exc in outcomes}) == 4
            causes = {id(exc.__cause__) for exc in outcomes}
            assert len(causes) == 1
            for exc in outcomes:
                assert "arity" in str(exc)
                assert exc.ticket is ticket
        finally:
            service.close()


    def test_a_bad_ticket_fails_alone_and_the_rest_of_its_batch_is_durable(self, tmp_path):
        manual = FlushPolicy(max_batch=1_000_000, max_delay_seconds=3600.0)
        service = DatalogService.open(tmp_path, TC, storage_config=fast_config(), flush_policy=manual)
        good = service.insert("edge", (1, 2))
        bad = service.insert("edge", (7, 8, 9))  # the program says edge has arity 2
        fresh = service.insert("note", ("x",))  # a new relation: its first ticket sets the arity
        clash = service.insert("note", ("y", "z"))
        assert service.barrier(timeout=10) == 1
        assert good.wait(timeout=10) == fresh.wait(timeout=10) == 1
        for ticket in (bad, clash):
            with pytest.raises(FlushError, match="arity") as info:
                ticket.wait(timeout=10)
            assert isinstance(info.value.__cause__, SchemaError)
        assert service.stats.writes_applied == 2
        assert service.stats.maintenance_rounds == 1
        assert service.query("path(X, Y)?").answers == {(1, 2)}
        assert service.session.facts("edge") == {(1, 2)}
        assert service.session.facts("note") == {("x",)}
        service.close()
        reopened = DatalogService.open(tmp_path, storage_config=fast_config(), flush_policy=FAST)
        assert reopened.epoch == 1
        assert reopened.session.facts("edge") == {(1, 2)}
        assert reopened.session.facts("note") == {("x",)}
        reopened.close()


class TestCloseBehavior:
    def test_stuck_flusher_is_surfaced_and_all_tickets_fail(self):
        service = DatalogService(TC, flush_policy=FAST)
        session_lock = service.session.lock
        session_lock.acquire()  # wedge the flusher mid-apply
        try:
            blocked = service.insert("edge", (1, 2))
            deadline = 50
            while service.queue.pending() and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            pending = service.insert("edge", (2, 3))
            with pytest.raises(ServiceClosed, match="did not exit"):
                service.close(timeout=0.2)
            # the queued ticket was failed, not abandoned — and shutdown
            # failures surface as ServiceClosed, not a generic FlushError
            assert pending.done()
            with pytest.raises(ServiceClosed, match="stuck"):
                pending.wait(timeout=1)
            # the ticket the flusher had already drained (the in-flight
            # batch it is stuck applying) is failed too, not left to block
            # its waiters forever
            assert blocked.done()
            with pytest.raises(ServiceClosed, match="stuck"):
                blocked.wait(timeout=1)
        finally:
            session_lock.release()
        service._flusher.join(timeout=10)
        assert not service._flusher.is_alive()
        # the flusher finished the batch once unwedged, but the outcome a
        # waiter observed is not rewritten: the first resolution wins
        with pytest.raises(ServiceClosed, match="stuck"):
            blocked.wait(timeout=1)

    def test_stuck_flusher_close_still_closes_the_store(self, tmp_path):
        service = DatalogService.open(
            tmp_path, TC, storage_config=fast_config(), flush_policy=FAST
        )
        session_lock = service.session.lock
        session_lock.acquire()
        try:
            ticket = service.insert("edge", (1, 2))
            with pytest.raises(ServiceClosed, match="did not exit"):
                service.close(timeout=0.2)
            # the raise path must not leak the WAL handle
            assert service.storage.wal._handle is None
            assert not service.storage.attached
            with pytest.raises(ServiceClosed):
                ticket.wait(timeout=1)
        finally:
            session_lock.release()
        service._flusher.join(timeout=10)
        assert not service._flusher.is_alive()

    def test_post_close_operations_are_consistent(self):
        service = DatalogService(TC, flush_policy=FAST)
        service.insert("edge", (1, 2), wait=True)
        service.close()
        with pytest.raises(ServiceClosed):
            service.insert("edge", (3, 4))
        with pytest.raises(ServiceClosed):
            service.query("path(X, Y)?")
        with pytest.raises(ServiceClosed):
            service.submit("path(X, Y)?")
        with pytest.raises(ServiceClosed):
            service.barrier()
        service.close()  # idempotent

    def test_clean_close_still_works(self, tmp_path):
        service = DatalogService.open(
            tmp_path, TC, storage_config=fast_config(), flush_policy=FAST
        )
        service.insert("edge", (1, 2), wait=True)
        service.close()
        assert not service._flusher.is_alive()


class TestAsRows:
    def test_single_row_and_row_lists(self):
        assert as_rows((1, 2)) == [(1, 2)]
        assert as_rows([1, 2]) == [(1, 2)]
        assert as_rows([(1, 2), (3, 4)]) == [(1, 2), (3, 4)]
        assert as_rows("solo") == [("solo",)]

    def test_empty_inputs(self):
        assert as_rows([]) == []
        assert as_rows(()) == []
        assert as_rows(iter([])) == []

    def test_generators(self):
        assert as_rows(row for row in [(1, 2), (3, 4)]) == [(1, 2), (3, 4)]
        assert as_rows(value for value in [1, 2]) == [(1,), (2,)]

    def test_mixed_rows_and_scalars_raise_with_the_offender(self):
        with pytest.raises(ValueError, match=r"element 1 is 3"):
            as_rows([(1, 2), 3])
        with pytest.raises(ValueError, match=r"element 1 is 'loose'"):
            as_rows([(1,), "loose"])
        with pytest.raises(ValueError, match="element"):
            as_rows(item for item in [(1, 2), 3])
