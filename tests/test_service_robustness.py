"""Robustness layer tests: retry policy, health machine, timeouts, overload.

These cover the graceful-degradation contract end to end: a transient
storage fault degrades the service to read-only, the background probe heals
it, and every failure mode (retry exhaustion, admission control, query
deadlines, a crashing flusher) fails crisply with a retryable error while
reads keep serving the last published epoch.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    Database,
    DatalogService,
    FlushError,
    FlushPolicy,
    MetricsRegistry,
    QueryTimeout,
    RetryPolicy,
    ServiceDegraded,
    ServiceOverloaded,
)
from repro.engine import check_deadline, evaluation_deadline
from repro.engine.instrumentation import active_profile, armed_deadline, query_trace
from repro.faults import FaultAction, FaultPlan, inject
from repro.service import DEGRADED, HEALTHY
from repro.storage import SimulatedCrash, StorageConfig, StorageError, is_transient
from repro.storage.wal import WriteAheadLog  # noqa: F401 - site docs anchor

TC = """
t(X, Y) :- a(X, Z), t(Z, Y).
t(X, Y) :- b(X, Y).
"""

FAST = FlushPolicy(max_batch=1, max_delay_seconds=0.0)


def tc_database():
    return Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})


def quick_retry(**overrides):
    defaults = dict(
        max_attempts=2,
        base_delay_seconds=0.001,
        max_delay_seconds=0.005,
        jitter=0.0,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def await_healthy(service, deadline=10.0):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if service.health == HEALTHY and not service._unlogged:
            return
        time.sleep(0.002)
    raise AssertionError(
        f"service never returned to HEALTHY (state {service.health!r}, "
        f"{len(service._unlogged)} unlogged batch(es))"
    )


def metric_value(body, name, **labels):
    for line in body.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest.startswith(" "):
            if labels:
                continue
            return float(rest.strip())
        if rest.startswith("{"):
            body_part, value = rest.rsplit(" ", 1)
            if all(f'{key}="{val}"' in body_part for key, val in labels.items()):
                return float(value)
    return None


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="negative"):
            RetryPolicy(base_delay_seconds=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)

    def test_delay_is_exponential_and_capped_without_jitter(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, multiplier=2.0, max_delay_seconds=0.5, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(64) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_seconds=0.1, jitter=0.25, seed=7)
        twin = RetryPolicy(base_delay_seconds=0.1, jitter=0.25, seed=7)
        other = RetryPolicy(base_delay_seconds=0.1, jitter=0.25, seed=8)
        for attempt in range(1, 6):
            delay = policy.delay(attempt)
            assert delay == twin.delay(attempt)  # pure function of (policy, attempt)
            raw = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert raw * 0.75 <= delay <= raw * 1.25
        assert any(policy.delay(a) != other.delay(a) for a in range(1, 6))

    def test_retryable_delegates_to_is_transient(self):
        policy = RetryPolicy()
        assert policy.retryable(OSError(28, "No space left on device"))
        assert policy.retryable(TimeoutError("slow disk"))
        assert not policy.retryable(RuntimeError("a bug"))
        assert not policy.retryable(None)


class TestIsTransient:
    def test_walks_the_cause_chain(self):
        wrapped = StorageError("WAL append failed")
        wrapped.__cause__ = OSError(5, "Input/output error")
        assert is_transient(wrapped)

    def test_simulated_crash_is_never_transient(self):
        crash = SimulatedCrash("planted")
        crash.__cause__ = OSError(28, "No space left on device")
        assert not is_transient(crash)

    def test_cyclic_chains_terminate(self):
        first = ValueError("a")
        second = KeyError("b")
        first.__cause__ = second
        second.__context__ = first
        assert not is_transient(first)


# ----------------------------------------------------------------------
# the health machine end to end
# ----------------------------------------------------------------------
class TestHealthMachine:
    def test_transient_fault_degrades_then_probe_heals(self, tmp_path):
        """ENOSPC through retry exhaustion -> DEGRADED -> probe -> HEALTHY.

        The window covers the first two in-loop attempts *and* the probe's
        first re-log, so the run exercises retry, exhaustion, a failed probe
        and a successful one — then the reopened store must hold every
        acknowledged write, including the once-unlogged backlog batch.
        """
        service = DatalogService.open(
            tmp_path,
            TC,
            database=tc_database(),
            storage_config=StorageConfig(fsync=False, snapshot_interval=10_000),
            flush_policy=FAST,
            retry=quick_retry(),
            metrics=MetricsRegistry(),
        )
        plan = FaultPlan().during("wal.append", range(1, 4), FaultAction.enospc())
        try:
            with inject(plan):
                with pytest.raises(FlushError, match="storage append failed"):
                    service.insert("b", (1, 7), wait=True, timeout=10.0)
                await_healthy(service)
            assert plan.hits("wal.append") >= 4  # 2 in-loop + failed probe + success
            robust = service.robustness
            assert robust.retries >= 1
            assert robust.retry_exhaustions == 1
            assert robust.degradations >= 1
            assert robust.recoveries >= 1
            assert robust.probes >= 2  # first probe hit the window, second healed
            assert robust.degraded_seconds > 0.0
            assert service.storage_stats.revivals >= 2
            # the write whose logging failed WAS applied in memory and is now
            # durably re-logged; later writes append normally
            service.insert("b", (2, 8), wait=True, timeout=10.0)
            assert ((1, 7) in service.query("t(X, Y)?").answers)
            rendered = service.metrics.render()
            assert metric_value(rendered, "repro_service_health_state") == 0.0
            assert metric_value(rendered, "repro_service_retries_total") >= 1
            assert metric_value(rendered, "repro_service_recoveries_total") >= 1
            assert metric_value(rendered, "repro_service_degradations_total") >= 1
        finally:
            service.close()
        with DatalogService.open(tmp_path) as reopened:
            answers = reopened.query("t(X, Y)?").answers
            assert (1, 7) in answers and (2, 8) in answers

    def test_degraded_service_stays_readable_and_refuses_writes(self, tmp_path):
        """While degraded: reads serve, writes raise ServiceDegraded, /healthz
        stays green (degraded != dead) with the recovery named in the detail."""
        service = DatalogService.open(
            tmp_path,
            TC,
            database=tc_database(),
            storage_config=StorageConfig(fsync=False, snapshot_interval=10_000),
            flush_policy=FAST,
            # one attempt, slow probe: holds the DEGRADED window open long
            # enough to observe it deterministically
            retry=quick_retry(max_attempts=1, base_delay_seconds=0.5, max_delay_seconds=0.5),
            metrics=MetricsRegistry(),
        )
        try:
            with inject(FaultPlan().at("wal.append", 1, FaultAction.eio())):
                with pytest.raises(FlushError):
                    service.insert("b", (1, 7), wait=True, timeout=10.0)
                assert service.health == DEGRADED
                # reads keep serving the last *published* epoch; the unlogged
                # batch publishes only once recovery re-logs it
                assert service.query("t(X, Y)?").answers == {(1, 4), (2, 4), (3, 4)}
                with pytest.raises(ServiceDegraded, match="safe to retry"):
                    service.insert("b", (9, 9), wait=True, timeout=10.0)
                assert service.robustness.writes_refused >= 1
                report = {name: check for name, check in service._health_checks().items()}
                assert report["storage"][0] is True  # degraded, not dead
                assert "recovery in progress" in report["storage"][1]
                assert metric_value(
                    service.metrics.render(), "repro_service_health_state"
                ) in (1.0, 2.0)
                await_healthy(service)
            service.insert("b", (9, 9), wait=True, timeout=10.0)
        finally:
            service.close()

    def test_non_transient_failure_poisons_without_a_probe(self, tmp_path):
        """A SimulatedCrash under the WAL is not retried and never heals:
        writes are refused with the historical 'refuses further writes'
        error, /healthz goes red, reads still serve."""
        service = DatalogService.open(
            tmp_path,
            TC,
            database=tc_database(),
            storage_config=StorageConfig(fsync=False, snapshot_interval=10_000),
            flush_policy=FAST,
            retry=quick_retry(),
        )
        try:
            crash = FaultAction.error(lambda: SimulatedCrash("injected crash"))
            with inject(FaultPlan().at("wal.append", 1, crash)):
                with pytest.raises(FlushError, match="WAL append failed"):
                    service.insert("b", (1, 7), wait=True, timeout=10.0)
            time.sleep(0.05)  # a probe would have run by now; none may exist
            assert service.health == DEGRADED
            assert service._probe is None
            assert not service._recoverable()
            assert service.robustness.retries == 0  # not worth a single retry
            with pytest.raises(FlushError, match="refuses"):
                service.insert("b", (2, 8), wait=True, timeout=10.0)
            checks = service._health_checks()
            assert checks["storage"][0] is False
            assert "poisoned" in checks["storage"][1]
            # reads survive, serving the last *published* epoch — the poisoned
            # batch never published, so the pre-fault state is what they see
            assert service.query("t(X, Y)?").answers == {(1, 4), (2, 4), (3, 4)}
            assert service.epoch == 0
        finally:
            service.close()

    def test_statusz_reports_the_health_section(self):
        with DatalogService(TC, tc_database(), flush_policy=FAST) as service:
            health = service._status_report()["health"]
            assert health["state"] == HEALTHY
            assert health["recoverable"] is True
            assert health["storage_failed"] is None
            assert health["unlogged_batches"] == 0
            assert health["robustness"]["degradations"] == 0


# ----------------------------------------------------------------------
# query deadlines
# ----------------------------------------------------------------------
class TestQueryTimeout:
    def test_impossible_deadline_raises_and_is_counted(self):
        with DatalogService(
            TC, tc_database(), flush_policy=FAST, metrics=MetricsRegistry()
        ) as service:
            with pytest.raises(QueryTimeout):
                service.query("t(1, Y)?", timeout=0.0)
            assert service.robustness.query_timeouts == 1
            assert metric_value(
                service.metrics.render(),
                "repro_service_query_seconds_count",
                outcome="timeout",
            ) == 1

    def test_submit_deadline_covers_reader_pool_queueing(self):
        with DatalogService(TC, tc_database(), flush_policy=FAST) as service:
            future = service.submit("t(1, Y)?", timeout=0.0)
            with pytest.raises(QueryTimeout):
                future.result(timeout=10.0)
            assert service.robustness.query_timeouts == 1

    def test_generous_deadline_answers_normally(self):
        with DatalogService(TC, tc_database(), flush_policy=FAST) as service:
            result = service.query("t(1, Y)?", timeout=30.0)
            assert result.answers == {(1, 4)}  # 1 -a-> 2 -a-> 3 -b-> 4
            assert service.robustness.query_timeouts == 0

    def test_cooperative_check_fires_inside_an_armed_scope(self):
        with evaluation_deadline(time.perf_counter() - 1.0):
            with pytest.raises(QueryTimeout):
                check_deadline()
        check_deadline()  # disarmed outside the scope

    def test_thread_local_channels_read_none_until_armed_in_that_thread(self):
        def unarmed():
            return armed_deadline(), active_profile()

        seen = []
        thread = threading.Thread(target=lambda: seen.append(unarmed()))
        thread.start()
        thread.join()
        assert seen == [(None, None)]  # a fresh thread: nothing armed, nothing raised
        recorder = object()
        with evaluation_deadline(time.perf_counter() + 3600.0), query_trace(recorder):
            assert armed_deadline() is not None and active_profile() is recorder
            thread = threading.Thread(target=lambda: seen.append(unarmed()))
            thread.start()
            thread.join()
        assert seen[1] == (None, None)  # armed in this thread, invisible in another
        assert unarmed() == (None, None)  # and restored on exit

    def test_nested_scopes_keep_the_tighter_deadline(self):
        soon = time.perf_counter() - 1.0
        with evaluation_deadline(soon):
            with evaluation_deadline(time.perf_counter() + 3600.0):
                # the outer (already expired) deadline must still govern
                with pytest.raises(QueryTimeout):
                    check_deadline()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_full_queue_sheds_writes_but_not_barriers(self):
        policy = FlushPolicy(
            max_batch=1_000_000, max_delay_seconds=3600.0, max_pending=2
        )
        with DatalogService(TC, tc_database(), flush_policy=policy) as service:
            service.insert("b", (1, 7))
            service.insert("b", (2, 8))
            with pytest.raises(ServiceOverloaded, match="max_pending"):
                service.insert("b", (3, 9))
            assert service.robustness.writes_shed == 1
            # the documented backoff move: barriers are exempt, so waiting on
            # one is exactly "retry after the flusher drains"
            service.barrier(timeout=10.0)
            service.insert("b", (3, 9))  # manual policy: flushed by the barrier
            service.barrier(timeout=10.0)
            assert (3, 9) in service.query("t(X, Y)?").answers

    def test_max_pending_validates(self):
        with pytest.raises(ValueError, match="max_pending"):
            FlushPolicy(max_pending=0)


# ----------------------------------------------------------------------
# the flusher survives its own faults
# ----------------------------------------------------------------------
class TestFlusherFaults:
    def test_apply_crash_fails_the_batch_but_not_the_flusher(self):
        """The satellite bugfix: an exception escaping the batch apply used
        to kill the flusher thread silently; now it fails that batch's
        tickets, degrades, heals, and keeps flushing."""
        with DatalogService(TC, tc_database(), flush_policy=FAST) as service:
            original = service._apply
            state = {"crashed": False}

            def flaky(batch):
                if not state["crashed"]:
                    state["crashed"] = True
                    raise RuntimeError("apply exploded")
                return original(batch)

            service._apply = flaky
            with pytest.raises(FlushError, match="apply exploded"):
                service.insert("b", (1, 7), wait=True, timeout=10.0)
            assert service._flusher.is_alive()
            assert service.robustness.flusher_faults == 1
            assert service.robustness.degradations >= 1
            await_healthy(service)
            service.insert("b", (2, 8), wait=True, timeout=10.0)
            assert (2, 8) in service.query("t(X, Y)?").answers

    def test_drain_crash_degrades_instead_of_dying_silently(self):
        service = DatalogService(TC, tc_database(), flush_policy=FAST)
        try:
            def dying_drain(*_args, **_kwargs):
                raise RuntimeError("drain exploded")

            # the flusher re-reads queue.drain each loop iteration: finish
            # one clean flush, then the next drain call explodes
            service.queue.drain = dying_drain
            service.insert("b", (1, 7), wait=True, timeout=10.0)
            deadline = time.monotonic() + 10.0
            while service._flusher.is_alive() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert not service._flusher.is_alive()
            assert service.health == DEGRADED
            assert service.robustness.flusher_faults == 1
            checks = service._health_checks()
            assert checks["flusher_alive"][0] is False
            # reads outlive the flusher; the degradation is visible, not silent
            assert (1, 7) in service.query("t(X, Y)?").answers
        finally:
            service.close()


# ----------------------------------------------------------------------
# close() lifecycle
# ----------------------------------------------------------------------
class TestCloseLifecycle:
    def test_close_is_idempotent(self):
        service = DatalogService(TC, tc_database(), flush_policy=FAST)
        service.close()
        service.close()  # second (and later) calls return immediately
        assert service._closed

    def test_close_shuts_down_the_observability_server(self):
        service = DatalogService(TC, tc_database(), flush_policy=FAST)
        server = service.serve_metrics()
        url = server.url("/metrics")
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
        service.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=1)

    def test_context_manager_exit_tolerates_an_earlier_close(self):
        with DatalogService(TC, tc_database(), flush_policy=FAST) as service:
            service.insert("b", (1, 7), wait=True, timeout=10.0)
            service.close()
        assert service._closed
