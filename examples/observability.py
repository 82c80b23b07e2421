"""Observability walkthrough: metrics, health, status and traces, live.

This boots a :class:`repro.DatalogService`, turns observability on with
``serve_metrics()`` (the service defaults to the free no-op registry — the
HTTP call *is* the opt-in), drives a small read/write workload, and then
plays the operator:

1. scrape ``/metrics`` — the Prometheus text exposition whose
   ``repro_service_*`` values agree with ``service.stats`` by construction,
2. probe ``/healthz`` — flusher alive, storage sound, epochs advancing,
3. read ``/statusz`` — the JSON merge of the service/storage/engine stats,
4. inspect the tracer: flush spans, the slow-query log, and a JSONL export,
5. EXPLAIN a query (``repro.explain`` — the plan, without running it), then
   EXPLAIN ANALYZE it (``query(..., profile=True)`` — the same profile
   filled in by a real run) and read it back from ``/debug/queries``.

Run with:  PYTHONPATH=src python examples/observability.py
"""

from __future__ import annotations

import io
import json
import urllib.request

from repro import Database, DatalogService, explain

PROGRAM = """
reach(X, Y) :- hop(X, Z), reach(Z, Y).
reach(X, Y) :- link(X, Y).
"""


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def main() -> None:
    database = Database.from_dict(
        {
            "hop": [(n, n + 1) for n in range(20)],
            "link": [(20, 21)],
        }
    )
    with DatalogService(PROGRAM, database) as service:
        server = service.serve_metrics()  # port=0 -> ephemeral; also the opt-in
        print(f"exporter listening on http://{server.host}:{server.port}\n")

        # a little traffic so the instruments have something to say
        for _ in range(50):
            service.query("reach(0, Y)?")  # repeated -> epoch-cache hits
        service.insert("hop", (21, 22))
        service.insert("link", (22, 23))
        service.barrier()  # read-your-writes; also forces the flush
        service.query("reach(21, Y)?")

        # 1. /metrics — grep the headline families out of the exposition
        exposition = fetch(server.url("/metrics"))
        print("— /metrics (repro_service_* lines) —")
        for line in exposition.splitlines():
            if line.startswith("repro_service_") and "{" not in line:
                print(f"  {line}")
        print(f"  ... plus histograms/storage/engine families "
              f"({len(exposition.splitlines())} lines total)")

        # the acceptance property: the scrape agrees with the pinned stats
        stats = service.stats
        served = next(
            line for line in exposition.splitlines()
            if line.startswith("repro_service_queries_served_total ")
        )
        assert float(served.split()[1]) == stats.queries_served
        print(f"\n  scrape agrees with ServiceStats: {served} "
              f"== stats.queries_served={stats.queries_served}")

        # 2. /healthz — what a load balancer would poll
        health = json.loads(fetch(server.url("/healthz")))
        print(f"\n— /healthz — status={health['status']}")
        for name, check in health["checks"].items():
            print(f"  [{'ok' if check['ok'] else 'FAIL'}] {name}: {check['detail']}")

        # 3. /statusz — the operator's one-page summary
        status = json.loads(fetch(server.url("/statusz")))
        print(f"\n— /statusz — epoch={status['epoch']}")
        print(f"  service: {status['service']['queries_served']} queries, "
              f"{status['service']['cache_hits']} cache hits, "
              f"{status['service']['flushes']} flushes")
        print(f"  engine:  {status['engine']['tuples_examined']} tuples examined, "
              f"{status['engine']['lookups']} lookups")

        # 4. traces — flush spans and the JSONL export
        print("\n— tracer —")
        for span in service.tracer.spans("flush"):
            print(f"  {span}")
        buffer = io.StringIO()
        exported = service.tracer.export_jsonl(buffer)
        print(f"  exported {exported} spans as JSONL "
              f"({len(buffer.getvalue())} bytes)")

        # 5a. EXPLAIN — predict the strategy and describe the compiled plans
        #     without touching a single stored tuple
        plan = explain(
            service.session.program, "reach(0, Y)?", service.snapshot().as_database()
        )
        print("\n— EXPLAIN reach(0, Y)? —")
        print("  " + plan.render().replace("\n", "\n  "))

        # 5b. EXPLAIN ANALYZE — the same profile, filled in by a real run:
        #     strategy actually taken, dispatch decisions, timings, stats,
        #     cache outcome, and a trace ID shared with spans and slow-query
        #     records
        result = service.query("reach(5, Y)?", profile=True)
        print("\n— EXPLAIN ANALYZE reach(5, Y)? —")
        print("  " + result.profile.render().replace("\n", "\n  "))

        # 5c. /debug/queries — the flight recorder replays recent profiles
        #     (and lists in-flight queries, live) for any operator with curl
        debug = json.loads(fetch(server.url("/debug/queries")))
        print(f"\n— /debug/queries — {debug['profiles_recorded']} profiles "
              f"recorded, {len(debug['in_flight'])} in flight")
        for profile in debug["recent_profiles"]:
            print(f"  {profile['trace_id']}  {profile['query']}  "
                  f"-> {profile['strategy']} ({profile['outcome']}, "
                  f"cache={profile['cache']})")


if __name__ == "__main__":
    main()
