"""Unit tests for the concurrent serving layer (repro.service)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import (
    Database,
    DatalogService,
    EvaluationError,
    FlushPolicy,
    MetricsRegistry,
    ServiceClosed,
    Session,
    parse_program,
)
from repro.engine.query import SelectionQuery
from repro.service import EpochCache, WriteQueue, WriteTicket, coalesce

TC = """
t(X, Y) :- a(X, Z), t(Z, Y).
t(X, Y) :- b(X, Y).
"""


def tc_database():
    return Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})


def manual_flush_policy():
    """Writes sit on the queue until a barrier forces the flush."""
    return FlushPolicy(max_batch=1_000_000, max_delay_seconds=3600.0)


@pytest.fixture
def service():
    with DatalogService(TC, tc_database(), flush_policy=manual_flush_policy()) as svc:
        yield svc


# ----------------------------------------------------------------------
# session epochs
# ----------------------------------------------------------------------
class TestRegistryEpochs:
    def test_each_effective_mutation_round_advances_the_epoch(self):
        session = Session(TC, tc_database())
        assert session.epoch == 0
        session.insert("b", (2, 9))
        assert session.epoch == 1
        session.delete("b", (2, 9))
        assert session.epoch == 2

    def test_noop_mutations_do_not_advance_the_epoch(self):
        session = Session(TC, tc_database())
        session.insert("b", (3, 4))  # already present
        session.delete("b", (99, 99))  # absent
        assert session.epoch == 0

    def test_collect_touched_reports_and_resets(self):
        session = Session(TC, tc_database())
        session.insert("b", (2, 9))
        assert session.epoch == 1
        assert session.collect_touched() == {"b", "t"}  # the EDB relation plus the affected view
        assert session.collect_touched() == set()

    def test_a_derived_predicate_is_touched_only_when_its_version_moves(self):
        database = tc_database()
        database.insert_facts("c", [(10, 11)])
        session = Session(TC + "s(X, Y) :- c(X, Y).\n", database)
        session.insert("c", (12, 13))
        assert session.collect_touched() == {"c", "s"}
        session.insert("b", (2, 9))
        assert session.collect_touched() == {"b", "t"}  # 's' rides only on 'c'
        session.mutate(deletes={"c": [(12, 13)]}, inserts={"b": [(2, 8)]})
        assert session.epoch == 3  # one round, however many relations it spans
        assert session.collect_touched() == {"b", "c", "s", "t"}

    def test_restore_epoch_reanchors_and_forgets_touched(self):
        session = Session(TC, tc_database())
        session.insert("b", (2, 9))
        session.restore_epoch(41)
        assert session.epoch == 41
        assert session.collect_touched() == set()
        session.delete("b", (2, 9))
        assert session.epoch == 42

    def test_the_session_lock_is_reentrant(self):
        session = Session(TC, tc_database())
        with session.lock:  # the service holds it around mutate
            assert session.insert("b", (2, 9)) == 1
            assert session.query("t(2, Y)?").answers == {(2, 4), (2, 9)}
        assert session.epoch == 1


# ----------------------------------------------------------------------
# the epoch-keyed cache
# ----------------------------------------------------------------------
class TestEpochCache:
    def test_hit_only_at_the_cached_epoch(self):
        cache = EpochCache()
        query = SelectionQuery.of("t", 2, {0: 1})
        assert cache.get(0, query) is None
        assert cache.put(0, query, {(1, 4)})
        assert cache.get(0, query) == {(1, 4)}
        assert cache.get(1, query) is None  # different epoch: miss

    def test_advance_invalidates_exactly_the_touched_predicates(self):
        cache = EpochCache()
        on_t = SelectionQuery.of("t", 2, {0: 1})
        on_b = SelectionQuery.of("b", 2, {0: 3})
        cache.put(0, on_t, {(1, 4)})
        cache.put(0, on_b, {(3, 4)})
        dropped = cache.advance(1, {"t", "a"})
        assert dropped == 1
        assert cache.get(1, on_t) is None  # invalidated
        assert cache.get(1, on_b) == {(3, 4)}  # revalidated at the new epoch

    def test_stale_puts_are_rejected(self):
        cache = EpochCache()
        query = SelectionQuery.of("t", 2, {0: 1})
        cache.advance(2, set())
        assert not cache.put(1, query, {(9, 9)})  # a slow reader's old answer
        assert cache.get(2, query) is None

    def test_epoch_must_be_monotone(self):
        cache = EpochCache()
        cache.advance(3, set())
        with pytest.raises(ValueError):
            cache.advance(2, set())

    def test_lru_eviction(self):
        cache = EpochCache(max_entries=2)
        queries = [SelectionQuery.of("t", 2, {0: i}) for i in range(3)]
        cache.put(0, queries[0], {(0, 0)})
        cache.put(0, queries[1], {(1, 1)})
        cache.get(0, queries[0])  # refresh 0 so 1 is the eviction victim
        cache.put(0, queries[2], {(2, 2)})
        assert cache.get(0, queries[0]) is not None
        assert cache.get(0, queries[1]) is None
        assert len(cache) == 2

    def test_returned_sets_are_copies(self):
        cache = EpochCache()
        query = SelectionQuery.of("t", 2, {0: 1})
        cache.put(0, query, {(1, 4)})
        answers = cache.get(0, query)
        answers.add((666, 666))
        assert cache.get(0, query) == {(1, 4)}


# ----------------------------------------------------------------------
# write coalescing
# ----------------------------------------------------------------------
class TestCoalesce:
    def test_last_operation_per_row_wins(self):
        batch = [
            WriteTicket("insert", "b", ((1, 2),)),
            WriteTicket("delete", "b", ((1, 2),)),
            WriteTicket("delete", "b", ((3, 4),)),
            WriteTicket("insert", "b", ((3, 4),)),
        ]
        (group,) = coalesce(batch)
        assert group.relation == "b"
        assert group.deletes == [(1, 2)]
        assert group.inserts == [(3, 4)]

    def test_groups_per_relation_preserving_first_touch_order(self):
        batch = [
            WriteTicket("insert", "b", ((1, 2),)),
            WriteTicket("insert", "a", ((5, 6),)),
            WriteTicket("insert", "b", ((7, 8),)),
        ]
        groups = coalesce(batch)
        assert [group.relation for group in groups] == ["b", "a"]
        assert groups[0].inserts == [(1, 2), (7, 8)]

    def test_duplicate_rows_collapse_and_barriers_are_skipped(self):
        batch = [
            WriteTicket("insert", "b", ((1, 2), (1, 2))),
            WriteTicket("barrier"),
            WriteTicket("insert", "b", ((1, 2),)),
        ]
        (group,) = coalesce(batch)
        assert group.inserts == [(1, 2)]
        assert group.deletes == []


# ----------------------------------------------------------------------
# the service front door
# ----------------------------------------------------------------------
class CountingCondition(threading.Condition):
    """A condition variable that counts its ``notify_all`` calls."""

    def __init__(self):
        super().__init__()
        self.notifies = 0

    def notify_all(self):
        self.notifies += 1
        super().notify_all()


def write(row):
    return WriteTicket(WriteTicket.INSERT, "b", (row,))


class TestWriteQueueWakeups:
    """``WriteQueue.put`` wakes the flusher only when a trigger is reached."""

    def test_four_writes_and_a_barrier_notify_twice(self):
        queue = WriteQueue(manual_flush_policy())
        queue._cond = spy = CountingCondition()
        for value in range(4):
            queue.put(write((value, value)))
        assert spy.notifies == 1  # the first write arms the max_delay wait
        queue.put(WriteTicket(WriteTicket.BARRIER))
        assert spy.notifies == 2
        assert len(queue.drain()) == 5

    def test_a_full_batch_notifies(self):
        queue = WriteQueue(FlushPolicy(max_batch=3, max_delay_seconds=3600.0))
        queue._cond = spy = CountingCondition()
        for value in range(3):
            queue.put(write((value, value)))
        assert spy.notifies == 2  # the first write, then the third (max_batch)

    def test_a_lone_write_flushes_after_max_delay(self):
        delay = 0.2
        queue = WriteQueue(FlushPolicy(max_batch=1_000_000, max_delay_seconds=delay))
        drained = []
        flusher = threading.Thread(target=lambda: drained.append(queue.drain()))
        flusher.start()
        started = time.monotonic()
        first = queue.put(write((1, 1)))
        second = queue.put(write((2, 2)))  # no wakeup: it rides the armed wait
        flusher.join(timeout=10)
        assert drained == [[first, second]]
        assert delay * 0.5 <= time.monotonic() - started < 10


class TestDatalogService:
    def test_coalesced_flush_is_one_maintenance_round(self, service):
        for value in range(5):
            service.insert("b", (2, 100 + value))
        epoch = service.barrier()
        stats = service.stats
        assert stats.writes_applied == 5
        assert stats.flushes == 1
        assert stats.maintenance_rounds == 1  # one Session.mutate call for all 5
        assert stats.coalescing_factor() == 5.0
        assert epoch == service.epoch == 1
        assert service.query("t(2, Y)?").answers == {
            (2, 4), (2, 100), (2, 101), (2, 102), (2, 103), (2, 104)
        }

    def test_insert_then_delete_coalesces_to_nothing(self, service):
        service.insert("b", (7, 8))
        service.delete("b", (7, 8))
        service.barrier()
        stats = service.stats
        assert stats.writes_applied == 2
        assert stats.flushes == 1
        assert stats.maintenance_rounds == 0  # the net effect was empty
        assert service.epoch == 0  # nothing changed: no new epoch published
        assert (7, 8) not in service.query("t(X, Y)?").answers

    def test_size_trigger_flushes_without_a_barrier(self):
        policy = FlushPolicy(max_batch=3, max_delay_seconds=3600.0)
        with DatalogService(TC, tc_database(), flush_policy=policy) as svc:
            tickets = [svc.insert("b", (2, 100 + v)) for v in range(3)]
            assert tickets[-1].wait(timeout=10) == 1  # size trigger: no barrier needed
            assert all(ticket.done() for ticket in tickets)

    def test_latency_deadline_flushes_a_lone_write(self):
        policy = FlushPolicy(max_batch=1_000_000, max_delay_seconds=0.01)
        with DatalogService(TC, tc_database(), flush_policy=policy) as svc:
            ticket = svc.insert("b", (2, 200))
            assert ticket.wait(timeout=10) == 1

    def test_snapshot_isolation_across_writes(self, service):
        before = service.query("t(1, Y)?")
        service.insert("b", (1, 50), wait=False)
        service.barrier()
        after = service.query("t(1, Y)?")
        assert before.epoch == 0 and after.epoch == 1
        assert (1, 50) in after.answers and (1, 50) not in before.answers
        # the old snapshot handle still serves its epoch, tuple for tuple
        assert before.snapshot.views["t"].rows() == {(1, 4), (2, 4), (3, 4)}

    def test_cache_hits_and_precise_invalidation(self, service):
        service.query("t(3, Y)?")
        assert service.query("t(3, Y)?").cached
        service.insert("b", (2, 60), wait=False)
        service.barrier()
        fresh = service.query("t(3, Y)?")  # 't' was touched: re-answered
        assert not fresh.cached
        stats = service.stats
        assert stats.cache_hits == 1 and stats.cache_misses == 2

    def test_untouched_predicate_survives_an_epoch_advance(self):
        # 's' rides only on 'c', so a write to 'b' must not evict it: the
        # session reports per-predicate version changes, not whole views
        program = TC + "s(X, Y) :- c(X, Y).\n"
        database = tc_database()
        database.insert_facts("c", [(10, 11)])
        with DatalogService(program, database, flush_policy=manual_flush_policy()) as svc:
            svc.query("s(10, Y)?")
            svc.insert("b", (2, 70), wait=False)
            svc.barrier()
            # the write touched b/t but not s/c: the cached answer survives
            assert svc.query("s(10, Y)?").cached

    def test_edb_queries_and_unknown_relations(self, service):
        assert service.query("b(3, Y)?").answers == {(3, 4)}
        assert service.query(SelectionQuery.of("ghost", 2, {0: 1})).answers == set()

    def test_submit_runs_on_the_reader_pool(self, service):
        futures = [service.submit("t(1, Y)?") for _ in range(8)]
        answers = {frozenset(f.result(timeout=10).answers) for f in futures}
        assert answers == {frozenset({(1, 4)})}

    def test_write_after_close_raises(self):
        svc = DatalogService(TC, tc_database())
        svc.close()
        with pytest.raises(RuntimeError):
            svc.insert("b", (1, 1))

    def test_flush_failure_propagates_to_the_waiting_client(self, service):
        ticket = service.insert("b", (1, 2, 3))  # arity mismatch
        # the barrier rides the same batch but no longer fails with it: a bad
        # write fails alone, and nothing else in the batch changed anything
        assert service.barrier(timeout=10) == 0
        with pytest.raises(Exception, match="arity"):
            ticket.wait(timeout=10)
        # the service survives and keeps serving
        assert service.query("t(1, Y)?").answers == {(1, 4)}
        assert service.barrier(timeout=10) == 0  # the queue is clean again

    def test_pinned_counters_for_a_scripted_run(self, service):
        service.query("t(1, Y)?")  # miss -> snapshot lookup
        service.query("t(1, Y)?")  # hit
        service.query("b(3, Y)?")  # miss -> snapshot EDB lookup
        service.insert("b", (2, 80))
        service.insert("b", (2, 81))
        service.delete("b", (3, 4))
        service.barrier()
        service.query("t(1, Y)?")  # miss (t touched)
        stats = service.stats
        assert stats.as_dict() == {
            "queries_served": 4,
            "cache_hits": 1,
            "cache_misses": 3,
            "writes_enqueued": 3,
            "writes_applied": 3,
            "flushes": 1,
            "maintenance_rounds": 1,  # the batch's delete and inserts are one Session.mutate
            "barriers": 1,
            "epochs_published": 1,
            "queue_depth": 0,  # everything flushed by the barrier
            "cache_entries": 1,  # the post-flush t(1, Y) miss re-primed it
            "storage_reclaims": 0,
            "storage_copies": 2,  # the first commit's detaches of b and t are cold
            "coalescing_factor": 3.0,
            "cache_hit_rate": 0.25,
        }

    def test_stats_dicts_list_every_field_in_declaration_order(self):
        from dataclasses import fields

        from repro.service.service import RobustnessStats, ServiceStats

        stats = ServiceStats(writes_applied=3, flushes=2)
        assert list(stats.as_dict()) == [f.name for f in fields(ServiceStats)] + [
            "coalescing_factor",
            "cache_hit_rate",
        ]
        assert stats.as_dict()["coalescing_factor"] == 1.5
        robust = RobustnessStats(degraded_seconds=0.12345678)
        assert list(robust.as_dict()) == [f.name for f in fields(RobustnessStats)]
        assert robust.as_dict()["degraded_seconds"] == 0.123457

    def test_stats_copy_samples_queue_depth_and_cache_entries(self, service):
        service.query("t(1, Y)?")  # prime one cache entry
        service.insert("b", (7, 70))  # manual policy: sits on the queue
        service.insert("b", (7, 71))
        stats = service.stats
        assert stats.queue_depth == 2
        assert stats.cache_entries == 1
        assert "queue=2" in str(stats) and "cache=1" in str(stats)
        service.barrier()
        assert service.stats.queue_depth == 0


# ----------------------------------------------------------------------
# a served query is one lookup: nothing evaluates
# ----------------------------------------------------------------------
class TestLookupOnlyReads:
    """``c`` is an EDB predicate of the program with no stored relation."""

    PROGRAM = TC + "s(X, Y) :- c(X, Y).\n"

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Calls of ``answer`` / ``plan_query``, through any module that binds them."""
        import repro.engine.query as query_module

        calls = []
        for name in ("answer", "plan_query"):
            real = getattr(query_module, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("text", ["ghost(1, Y)?", "c(X, Y)?", "c(10, Y)?"])
    def test_an_unstored_predicate_answers_empty_by_one_lookup(self, text, evaluations):
        results = [Session(self.PROGRAM, tc_database()).query(text)]
        assert results[0].strategy == "edb-lookup"
        for submit in (False, True):
            with DatalogService(self.PROGRAM, tc_database(), flush_policy=manual_flush_policy()) as svc:
                assert "c" not in svc.snapshot().edb and "ghost" not in svc.snapshot().edb
                served = svc.submit(text).result(timeout=10) if submit else svc.query(text)
                assert served.strategy == f"snapshot-edb@{svc.epoch}" and not served.cached
                results.append(served.result)
        for result in results:
            assert result.answers == set()
            assert (result.stats.lookups, result.stats.tuples_examined) == (1, 0)
        assert evaluations == []

    def test_materialized_and_stored_predicates_evaluate_nothing_either(self, evaluations):
        session = Session(self.PROGRAM, tc_database())
        with DatalogService(self.PROGRAM, tc_database(), flush_policy=manual_flush_policy()) as svc:
            for text, answers in (("t(1, Y)?", {(1, 4)}), ("s(X, Y)?", set()), ("b(3, Y)?", {(3, 4)})):
                assert session.query(text).answers == answers
                assert svc.query(text).answers == answers  # miss
                assert svc.query(text).answers == answers  # hit
        assert evaluations == []

    @pytest.mark.parametrize("text", ["t(1, Y, Z)?", "c(1)?", "b(3, Y, Z)?"])
    def test_a_wrong_arity_still_raises(self, text):
        session = Session(self.PROGRAM, tc_database())
        with DatalogService(self.PROGRAM, tc_database(), flush_policy=manual_flush_policy()) as svc:
            for ask in (session.query, svc.query, svc.submit):
                with pytest.raises(EvaluationError):
                    ask(text)

    def test_a_wrong_arity_on_a_stored_relation_outside_the_program_raises(self):
        database = tc_database()
        database.insert_facts("extra", [(1, 2, 3)])
        session = Session(self.PROGRAM, database.copy())
        with DatalogService(self.PROGRAM, database, flush_policy=manual_flush_policy()) as svc:
            for ask in (session.query, svc.query):
                with pytest.raises(EvaluationError):
                    ask("extra(1, Y)?")
            with pytest.raises(EvaluationError):
                svc.submit("extra(1, Y)?").result(timeout=10)


# ----------------------------------------------------------------------
# a held result pins its epoch; everything else is reclaimed
# ----------------------------------------------------------------------
class TestHeldResultsSurviveStorageReclaim:
    def test_a_result_kept_across_durable_commits_reads_its_own_epoch(self, tmp_path):
        with DatalogService(
            TC, tc_database(), storage=tmp_path / "store", flush_policy=manual_flush_policy()
        ) as svc:
            held = svc.query("t(1, Y)?")
            view = held.snapshot.views["t"]
            assert view.rows() == {(1, 4), (2, 4), (3, 4)}
            warm = None
            for commit in range(8):
                svc.insert("b", (2, 100 + commit))
                if commit:
                    svc.delete("b", (2, 99 + commit))  # t(1, ..) and t(2, ..) go through DRed
                svc.barrier()
                assert svc.query("t(1, Y)?").answers == {(1, 4), (1, 100 + commit)}
                assert svc.query("b(2, Y)?").answers == {(2, 100 + commit)}
                if commit == 3:
                    warm = svc.stats
            # the client's epoch: same rows, same buckets, eight publications later
            assert held.answers == {(1, 4)} and held.epoch < svc.epoch
            assert view.rows() == {(1, 4), (2, 4), (3, 4)}
            assert list(view.probe((0,), 1)) == [(1, 4)]
            assert list(view.probe((0,), 2)) == [(2, 4)]
            assert held.snapshot.edb["b"].rows() == {(3, 4)}
            # b and t were written by every commit: once warm, beside one
            # pinned epoch, their detaches take a standby back instead of copying
            stats = svc.stats
            assert stats.storage_copies == warm.storage_copies
            assert stats.storage_reclaims == warm.storage_reclaims + 2 * 4
            assert svc._status_report()["service"]["storage_reclaims"] == stats.storage_reclaims

    def test_readers_racing_the_writer_never_see_a_reclaimed_storage_move(self):
        """More reader threads than cores, a short switch interval: whatever
        snapshot a reader holds must stay the epoch it was, however many
        storages the writer takes back meanwhile."""
        failures, stop = [], threading.Event()

        def reader(svc):
            while not stop.is_set():
                snapshot = svc.snapshot()
                edges = set(snapshot.edb["b"].rows())
                # a is the chain 1 -> 2 -> 3, so x reaches every b-edge starting at or after it
                expected = {(x, y) for x in (1, 2, 3) for (start, y) in edges if start >= x}
                for _attempt in range(3):  # same answer while the writer moves on
                    got = set(snapshot.views["t"].rows())
                    if got != expected or set(snapshot.edb["b"].rows()) != edges:
                        failures.append((snapshot.epoch, got, expected))
                        return
                    time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DatalogService(TC, tc_database(), flush_policy=manual_flush_policy()) as svc:
                threads = [threading.Thread(target=reader, args=(svc,)) for _ in range(4)]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 1.5
                commit = 0
                while time.monotonic() < deadline and not failures:
                    svc.insert("b", (2, 100 + commit))
                    if commit:
                        svc.delete("b", (2, 99 + commit))
                    svc.barrier(timeout=30)
                    commit += 1
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                stats = svc.stats
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not failures, failures[:1]
        assert commit > 10 and stats.storage_reclaims > 0


# ----------------------------------------------------------------------
# a closed service: what it keeps, what it refuses, what it hands back
# ----------------------------------------------------------------------
class TestClosedService:
    def _open(self, path, **kwargs):
        """A durable service that has served hits and published two writes."""
        svc = DatalogService.open(path, TC, flush_policy=manual_flush_policy(), **kwargs)
        svc.insert("a", [(1, 2), (2, 3)])
        svc.insert("b", (3, 4))
        svc.barrier()
        for value in (9, 10):
            svc.query("t(1, Y)?")
            svc.query("t(1, Y)?")
            svc.insert("b", (2, value))
            svc.barrier()
        return svc

    def test_the_read_only_surface_keeps_answering(self, tmp_path):
        svc = self._open(tmp_path, metrics=MetricsRegistry())
        server = svc.serve_metrics()
        epoch, stats = svc.epoch, svc.stats
        storage, robust = svc.storage_stats.as_dict(), svc.robustness.as_dict()
        assert stats.cache_hits == 2 and stats.storage_reclaims + stats.storage_copies > 0
        svc.close()
        assert svc.epoch == epoch == 3
        # the relations' storage counters were folded in; the cache is empty
        assert svc.stats.as_dict() == {**stats.as_dict(), "cache_entries": 0}
        assert svc.storage_stats.as_dict() == storage
        assert svc.robustness.as_dict() == robust
        assert svc.health == "healthy"
        assert str(svc) == "DatalogService(epoch=3, closed)"
        assert str(svc.session.program) == str(parse_program(TC))
        rendered = svc.metrics.render()
        assert "repro_service_epoch 3" in rendered
        assert f"repro_service_storage_copies_total {stats.storage_copies}" in rendered
        report = server.health_report()
        assert report.checks["flusher_alive"][0] is False
        assert report.checks["storage"][0] and report.checks["epoch_advancing"][0]

    def test_reads_are_refused_but_a_held_snapshot_stays_valid(self, tmp_path):
        svc = self._open(tmp_path)
        held = svc.snapshot()
        result = svc.query("t(1, Y)?")
        svc.close()
        for read in (svc.snapshot, lambda: svc.query("t(1, Y)?"), lambda: svc.submit("t(1, Y)?")):
            with pytest.raises(ServiceClosed):
                read()
        assert held.views["t"].lookup({0: 1}) == sorted(result.answers)
        assert held.relation("b").rows() == {(3, 4), (2, 9), (2, 10)}
        assert result.snapshot.views["t"].rows() == held.views["t"].rows()

    def test_close_is_idempotent(self, tmp_path):
        svc = self._open(tmp_path)
        svc.close()
        stats = svc.stats
        svc.close()
        assert svc.epoch == 3 and svc.stats == stats

    def test_a_stuck_flusher_releases_nothing(self):
        svc = DatalogService(TC, tc_database(), flush_policy=FlushPolicy(max_batch=1, max_delay_seconds=0.001))
        lock = svc.session.lock
        lock.acquire()  # wedge the flusher mid-apply
        try:
            svc.insert("b", (2, 9))
            for _ in range(500):  # until the flusher has drained it
                if not svc.queue.pending():
                    break
                time.sleep(0.01)
            with pytest.raises(ServiceClosed, match="did not exit"):
                svc.close(timeout=0.2)
            assert isinstance(svc.session, Session)  # the flusher may still be applying
        finally:
            lock.release()
        svc._flusher.join(timeout=10)
        # unwedged, it finished its batch against the session it still had
        assert svc.session.facts("b") == {(3, 4), (2, 9)}
        assert str(svc) == "DatalogService(epoch=1, MaterializedView(default, dred, t=5))"

    def test_a_dropped_service_leaves_no_cyclic_garbage(self, tmp_path):
        """A fresh durable service and a recovered one, each queried, written and
        closed, are freed by reference counting alone: the collector finds none
        of their relations, databases or views, and no function
        object of ours (a nested function calling itself is a cycle per call)."""
        import gc
        import types
        import weakref

        from repro.datalog.relation import Relation
        from repro.incremental.view import MaterializedView

        def serve(path):
            svc = self._open(path)
            svc.delete("b", (2, 9))  # a DRed round, fresh or recovered
            svc.barrier()
            view = weakref.ref(svc.session.view.derived["t"])
            svc.close()
            return view

        serve(tmp_path / "warm")  # one-time analysis garbage is not a service's
        gc.collect()
        gc.disable()
        try:
            views = [serve(tmp_path / "store"), serve(tmp_path / "store")]  # fresh, recovered
            assert [view() for view in views] == [None, None]
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if isinstance(obj, (Relation, Database, MaterializedView))
                or (isinstance(obj, types.FunctionType) and obj.__module__.startswith("repro"))
            ]
            assert leaked == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


# ----------------------------------------------------------------------
# Session.facts (the read accessor satellite)
# ----------------------------------------------------------------------
class TestSessionFacts:
    def test_facts_round_trips_inserts(self):
        session = Session(TC, tc_database())
        assert session.facts("b") == {(3, 4)}
        session.insert("b", (2, 9))
        assert session.facts("b") == {(3, 4), (2, 9)}
        session.delete("b", (3, 4))
        assert session.facts("b") == {(2, 9)}

    def test_facts_on_unknown_relations_is_empty(self):
        session = Session(TC, tc_database())
        assert session.facts("nope") == set()

    def test_facts_returns_a_copy(self):
        session = Session(TC, tc_database())
        rows = session.facts("b")
        rows.add((666, 666))
        assert session.facts("b") == {(3, 4)}


# ----------------------------------------------------------------------
# a quick hammering smoke (the full families live in the differential file)
# ----------------------------------------------------------------------
def test_concurrent_readers_and_writers_smoke():
    policy = FlushPolicy(max_batch=4, max_delay_seconds=0.001)
    with DatalogService(TC, tc_database(), readers=3, flush_policy=policy) as svc:
        errors = []

        def read():
            try:
                for _ in range(40):
                    result = svc.query("t(1, Y)?")
                    assert (1, 4) in result.answers  # never deleted below
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def write():
            try:
                for value in range(30):
                    svc.insert("b", (2, 1000 + value))
                    if value % 3 == 0:
                        svc.delete("b", (2, 1000 + value))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(3)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        svc.barrier()
        assert not errors
        final = svc.query("t(2, Y)?")
        expected = {(2, 4)} | {
            (2, 1000 + value) for value in range(30) if value % 3 != 0
        }
        assert final.answers == expected
