"""Integration tests: the observability layer wired through the service.

These tests boot real :class:`DatalogService` instances, scrape the live
HTTP endpoints with ``urllib`` and assert the exposed values agree with the
pinned ``ServiceStats``/``StorageStats`` counters — the acceptance criterion
for the observability layer is exactly that agreement.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import (
    Database,
    DatalogService,
    FlushPolicy,
    MetricsRegistry,
    ObservabilityServer,
    Tracer,
)
from repro.obs.metrics import CONTENT_TYPE
from repro.storage import StorageConfig

TC = """
t(X, Y) :- a(X, Z), t(Z, Y).
t(X, Y) :- b(X, Y).
"""


def tc_database():
    return Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})


def manual_flush_policy():
    return FlushPolicy(max_batch=1_000_000, max_delay_seconds=3600.0)


def get(url):
    """GET -> (status, content_type, body-str); 4xx/5xx do not raise."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.headers["Content-Type"], response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], error.read().decode()


def metric_value(body, name, **labels):
    """Pull one sample value out of an exposition body (None if absent)."""
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


@pytest.fixture
def service():
    with DatalogService(
        TC,
        tc_database(),
        flush_policy=manual_flush_policy(),
        metrics=MetricsRegistry(),
        tracer=Tracer(),
    ) as svc:
        yield svc


# ----------------------------------------------------------------------
# in-process wiring (no HTTP)
# ----------------------------------------------------------------------
class TestRegistryWiring:
    def test_metrics_agree_with_pinned_service_stats(self, service):
        service.query("t(1, Y)?")
        service.query("t(1, Y)?")  # second read hits the epoch cache
        service.insert("b", (2, 9))
        service.barrier()
        service.query("t(1, Y)?")
        stats = service.stats.as_dict()
        rendered = service.metrics.render()
        for key in (
            "queries_served",
            "cache_hits",
            "cache_misses",
            "snapshot_lookups",
            "writes_applied",
            "flushes",
            "epochs_published",
            "barriers",
            "storage_reclaims",
            "storage_copies",
        ):
            exposed = metric_value(rendered, f"repro_service_{key}_total")
            assert exposed == stats[key], f"{key}: exposed {exposed} != stats {stats[key]}"
        assert stats["storage_copies"] == 2  # b and t, detached cold by the one commit
        assert metric_value(rendered, "repro_service_epoch") == service.epoch
        assert metric_value(rendered, "repro_service_queue_depth") == 0
        assert metric_value(rendered, "repro_service_cache_entries") == stats["cache_entries"]

    def test_query_latency_histogram_labels_by_outcome(self, service):
        service.query("t(1, Y)?")  # miss -> snapshot_lookup
        service.query("t(1, Y)?")  # hit
        rendered = service.metrics.render()
        assert metric_value(
            rendered, "repro_service_query_seconds_count", outcome="snapshot_lookup"
        ) == 1
        assert metric_value(
            rendered, "repro_service_query_seconds_count", outcome="cache_hit"
        ) == 1

    def test_flush_and_publish_latencies_record_per_flush(self, service):
        service.insert("b", (5, 6))
        service.barrier()
        rendered = service.metrics.render()
        assert metric_value(rendered, "repro_service_flush_seconds_count") == 1
        assert metric_value(rendered, "repro_service_publish_seconds_count") == 1

    def test_engine_bridge_labels_by_strategy(self, service):
        service.query("t(1, Y)?")  # snapshot lookup against the view
        service.insert("b", (2, 9))
        service.barrier()  # incremental maintenance round
        rendered = service.metrics.render()
        assert metric_value(
            rendered, "repro_engine_queries_total", strategy="snapshot-lookup"
        ) == 1
        assert metric_value(
            rendered, "repro_engine_queries_total", strategy="maintenance"
        ) == 1
        totals = service._engine_bridge.totals
        assert metric_value(rendered, "repro_engine_lookups_total") == totals.lookups
        assert (
            metric_value(rendered, "repro_engine_tuples_examined_total")
            == totals.tuples_examined
        )

    def test_flush_spans_are_traced(self, service):
        service.insert("b", (2, 9))
        service.barrier()
        (span,) = service.tracer.spans("flush")
        assert span.attributes["writes"] == 1
        assert span.attributes["epoch"] == service.epoch
        assert span.attributes["published"] is True

    def test_slow_query_log_catches_everything_at_zero_threshold(self):
        with DatalogService(
            TC,
            tc_database(),
            flush_policy=manual_flush_policy(),
            metrics=MetricsRegistry(),
            tracer=Tracer(slow_threshold_seconds=0.0),
        ) as svc:
            svc.query("t(1, Y)?")
            (span,) = svc.tracer.slow_spans()
            assert span.name == "slow_query"
            assert span.attributes["predicate"] == "t"
            assert span.attributes["outcome"] == "snapshot_lookup"

    def test_default_service_runs_on_the_null_pair(self):
        with DatalogService(TC, tc_database(), flush_policy=manual_flush_policy()) as svc:
            assert svc.metrics.null
            assert svc.tracer.null
            svc.query("t(1, Y)?")
            svc.insert("b", (2, 9))
            svc.barrier()
            assert svc.metrics.render() == ""
            assert svc.tracer.spans() == []


# ----------------------------------------------------------------------
# the HTTP endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_metrics_endpoint_serves_the_exposition_format(self, service):
        service.query("t(1, Y)?")
        server = service.serve_metrics()
        status, content_type, body = get(server.url("/metrics"))
        assert status == 200
        assert content_type == CONTENT_TYPE
        assert "# TYPE repro_service_query_seconds histogram" in body
        assert metric_value(body, "repro_service_queries_served_total") == 1
        # the scrape agrees with the in-process stats
        assert (
            metric_value(body, "repro_service_queries_served_total")
            == service.stats.queries_served
        )

    def test_healthz_reports_ok_for_a_live_service(self, service):
        server = service.serve_metrics()
        status, content_type, body = get(server.url("/healthz"))
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["checks"]["flusher_alive"]["ok"] is True
        assert payload["checks"]["storage"]["ok"] is True
        assert payload["checks"]["epoch_advancing"]["ok"] is True

    def test_statusz_merges_stats_and_epoch(self, service):
        service.query("t(1, Y)?")
        service.insert("b", (2, 9))
        service.barrier()
        server = service.serve_metrics()
        status, _content_type, body = get(server.url("/statusz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["epoch"] == service.epoch
        assert payload["closed"] is False
        assert payload["service"] == service.stats.as_dict()
        assert payload["storage"] is None  # in-memory service
        assert payload["engine"]["lookups"] == service._engine_bridge.totals.lookups
        assert "flags" not in payload  # the engine has no user-settable switch
        assert payload["tracing"]["spans_recorded"] == service.tracer.spans_recorded
        assert payload["tracing"]["slow_threshold_seconds"] == 0.1

    def test_unknown_paths_get_404_naming_every_endpoint(self, service):
        server = service.serve_metrics()
        status, _content_type, body = get(server.url("/nope"))
        assert status == 404
        for endpoint in ("/metrics", "/healthz", "/statusz", "/debug/queries"):
            assert endpoint in body

    def test_debug_queries_serves_the_flight_recorder(self, service):
        service.query("t(1, Y)?", profile=True)
        server = service.serve_metrics()
        status, content_type, body = get(server.url("/debug/queries"))
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["in_flight"] == []
        assert payload["profiles_recorded"] == 1
        (profile,) = payload["recent_profiles"]
        assert profile["query"] == "t(1, C1)?"
        assert profile["outcome"] == "ok"
        assert profile["trace_id"] == service.flight.profiles()[0].trace_id

    def test_serve_metrics_is_idempotent(self, service):
        server = service.serve_metrics()
        assert service.serve_metrics() is server

    def test_serve_metrics_upgrades_a_null_service_in_place(self):
        with DatalogService(TC, tc_database(), flush_policy=manual_flush_policy()) as svc:
            assert svc.metrics.null
            server = svc.serve_metrics()
            assert not svc.metrics.null
            assert not svc.tracer.null
            svc.query("t(1, Y)?")
            _status, _ct, body = get(server.url("/metrics"))
            assert metric_value(body, "repro_service_queries_served_total") == 1

    def test_close_shuts_the_exporter_down(self):
        svc = DatalogService(TC, tc_database(), flush_policy=manual_flush_policy())
        server = svc.serve_metrics()
        url = server.url("/healthz")
        svc.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=1)

    def test_serve_metrics_after_close_raises(self):
        svc = DatalogService(TC, tc_database(), flush_policy=manual_flush_policy())
        svc.close()
        from repro import ServiceClosed

        with pytest.raises(ServiceClosed):
            svc.serve_metrics()

    def test_standalone_server_needs_no_service(self):
        registry = MetricsRegistry()
        registry.counter("standalone_total", "Standalone.").inc(3)
        with ObservabilityServer(registry) as server:
            _status, _ct, body = get(server.url("/metrics"))
            assert metric_value(body, "standalone_total") == 3
            status, _ct, body = get(server.url("/healthz"))
            assert status == 200  # no checks registered -> vacuously healthy
            assert json.loads(body)["checks"] == {}


# ----------------------------------------------------------------------
# exporter error paths
# ----------------------------------------------------------------------
class TestExporterErrorPaths:
    def test_scrapes_racing_close_never_crash_the_server(self):
        """Hammer every endpoint from threads while close() runs underneath.

        The contract: in-flight requests either complete or fail with a
        connection error on the *client* side; nothing hangs, close()
        returns, and close() stays idempotent afterwards.
        """
        import threading

        registry = MetricsRegistry()
        registry.counter("race_total", "Race.").inc(1)
        server = ObservabilityServer(registry)
        urls = [
            server.url(path)
            for path in ("/metrics", "/healthz", "/statusz", "/debug/queries")
        ]
        stop = threading.Event()
        failures = []

        def hammer(url):
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=2) as response:
                        response.read()
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass  # the race we are provoking; must not hang or leak
                except Exception as error:  # noqa: BLE001 - anything else is a bug
                    failures.append(error)
                    return

        threads = [
            threading.Thread(target=hammer, args=(url,), daemon=True) for url in urls
        ]
        for thread in threads:
            thread.start()
        server.close()
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert failures == []
        server.close()  # idempotent after the race

    def test_debug_queries_shows_live_in_flight_queries(self):
        """Scrape /debug/queries *while* a slow fallback query evaluates."""
        import time

        closure = """
        t(X, Y) :- a(X, Y).
        t(X, Y) :- a(X, Z), t(Z, Y).
        """
        database = Database.from_dict({"a": [(i, i + 1) for i in range(600)]})
        with DatalogService(
            closure, database, flush_policy=manual_flush_policy()
        ) as svc:
            server = svc.serve_metrics()
            # only fallback evaluations are tracked in flight; drop the
            # materialized view so the unbound closure actually evaluates
            svc._snapshot.views.pop("t")
            future = svc.submit("t(X, Y)?", timeout=60.0)
            seen = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _status, _ct, body = get(server.url("/debug/queries"))
                payload = json.loads(body)
                if payload["in_flight"]:
                    seen = payload["in_flight"]
                    break
            assert seen is not None, "the evaluating query never showed up live"
            (row,) = seen
            assert row["query"] == "t(C0, C1)?"
            assert row["trace_id"].startswith("q-")
            assert row["elapsed_seconds"] >= 0
            assert row["deadline_seconds"] > 0
            result = future.result(timeout=120.0)
            assert len(result.answers) == 600 * 601 // 2
            # evaluation finished: the live table drains again
            _status, _ct, body = get(server.url("/debug/queries"))
            assert json.loads(body)["in_flight"] == []

    def test_standalone_server_serves_empty_debug_payload(self):
        with ObservabilityServer(MetricsRegistry()) as server:
            status, _ct, body = get(server.url("/debug/queries"))
            assert status == 200
            assert json.loads(body) == {}


# ----------------------------------------------------------------------
# health degradation
# ----------------------------------------------------------------------
class TestHealthDegradation:
    def test_poisoned_storage_turns_healthz_503(self, tmp_path):
        with DatalogService.open(
            tmp_path / "store",
            TC,
            flush_policy=manual_flush_policy(),
        ) as svc:
            svc.insert("b", (1, 2))
            svc.barrier()
            server = svc.serve_metrics()
            status, _ct, body = get(server.url("/healthz"))
            assert status == 200
            # simulate a flush-time storage failure poisoning the write path
            svc._storage_failed = RuntimeError("disk gone")
            status, _ct, body = get(server.url("/healthz"))
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "unhealthy"
            assert payload["checks"]["storage"]["ok"] is False
            assert "disk gone" in payload["checks"]["storage"]["detail"]
            svc._storage_failed = None  # let close() flush cleanly

    def test_dead_flusher_fails_the_liveness_check(self):
        svc = DatalogService(TC, tc_database(), flush_policy=manual_flush_policy())
        server = svc.serve_metrics()
        assert server.health_report().healthy
        # close() joins the flusher; probing the dead service afterwards must
        # fail the liveness check rather than lie (the HTTP server is down
        # too, so run the checks directly)
        svc.close()
        report = server.health_report()
        assert not report.healthy
        assert report.checks["flusher_alive"][0] is False


# ----------------------------------------------------------------------
# durable storage metrics
# ----------------------------------------------------------------------
class TestStorageMetrics:
    def test_storage_metrics_agree_with_pinned_storage_stats(self, tmp_path):
        with DatalogService.open(
            tmp_path / "store",
            TC,
            flush_policy=manual_flush_policy(),
            storage_config=StorageConfig(snapshot_interval=1_000_000),
            metrics=MetricsRegistry(),
        ) as svc:
            for value in range(3):
                svc.insert("b", (1, 100 + value))
                svc.barrier()
            stats = svc.storage_stats.as_dict()
            rendered = svc.metrics.render()
            assert stats["records_appended"] == 3
            for key in ("records_appended", "bytes_appended", "rows_logged", "compactions"):
                assert metric_value(rendered, f"repro_storage_{key}_total") == stats[key]
            assert metric_value(rendered, "repro_storage_wal_segments") == stats["wal_segments"]
            assert (
                metric_value(rendered, "repro_storage_active_segment_bytes")
                == stats["active_segment_bytes"]
            )
            assert stats["active_segment_bytes"] > 0
            # fsync + append latencies were observed once per logged batch
            assert metric_value(rendered, "repro_storage_append_seconds_count") == 3
            assert metric_value(rendered, "repro_storage_fsync_seconds_count") >= 3

    def test_compaction_records_latency_and_a_span(self, tmp_path):
        tracer = Tracer()
        with DatalogService.open(
            tmp_path / "store",
            TC,
            flush_policy=manual_flush_policy(),
            storage_config=StorageConfig(snapshot_interval=1),
            metrics=MetricsRegistry(),
            tracer=tracer,
        ) as svc:
            svc.insert("b", (1, 2))
            svc.barrier()
            rendered = svc.metrics.render()
            assert metric_value(rendered, "repro_storage_compactions_total") == 1
            assert metric_value(rendered, "repro_storage_compaction_seconds_count") == 1
            (span,) = tracer.spans("compaction")
            assert span.attributes["epoch"] == svc.epoch

    def test_recovery_traces_a_span(self, tmp_path):
        path = tmp_path / "store"
        with DatalogService.open(path, TC, flush_policy=manual_flush_policy()) as svc:
            svc.insert("b", (1, 2))
            svc.barrier()
        tracer = Tracer()
        with DatalogService.open(
            path, flush_policy=manual_flush_policy(), tracer=tracer,
            metrics=MetricsRegistry(),
        ) as svc:
            assert sorted(svc.query("t(1, Y)?").answers) == [(1, 2)]
            (span,) = tracer.spans("recover")
            assert span.attributes["records_replayed"] >= 1
