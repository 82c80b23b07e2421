"""HTTP exposition: ``/metrics``, ``/healthz``, ``/statusz`` and ``/debug/queries``.

:class:`ObservabilityServer` wraps a daemonized
:class:`http.server.ThreadingHTTPServer` serving four endpoints:

* ``/metrics`` — the registry rendered in Prometheus text exposition format
  (``text/plain; version=0.0.4``), ready for a scraper;
* ``/healthz`` — liveness: every registered health check runs, and the
  response is ``200 {"status": "ok", ...}`` only when all pass (otherwise
  ``503`` with the failing checks named) — the load-balancer hook;
* ``/statusz`` — a JSON merge of the pinned stats dictionaries plus whatever
  else the owner's status callable reports (epoch, health, ...) — the
  human/debugging hook;
* ``/debug/queries`` — the owner's query flight recorder
  (:class:`repro.obs.profile.FlightRecorder`): the ring of recent
  :class:`~repro.obs.profile.QueryProfile` records.

The server binds ``127.0.0.1`` by default and picks an ephemeral port when
``port=0``; :attr:`ObservabilityServer.port` is the bound port either way.
It is started by :meth:`repro.service.service.DatalogService.serve_metrics`
but owns nothing service-specific: any registry plus optional health/status
callables make a servable triple.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from .metrics import CONTENT_TYPE

__all__ = ["HealthReport", "ObservabilityServer"]

#: one health check's outcome: ``(passed, detail)``
CheckResult = Tuple[bool, str]
#: the owner-supplied probe: check name -> outcome
HealthProbe = Callable[[], Dict[str, CheckResult]]
#: the owner-supplied status report (must be JSON-serializable)
StatusProbe = Callable[[], Dict[str, object]]


class HealthReport:
    """The evaluated health checks, as ``/healthz`` serializes them."""

    def __init__(self, checks: Dict[str, CheckResult]) -> None:
        self.checks = checks

    @property
    def healthy(self) -> bool:
        return all(passed for passed, _detail in self.checks.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": "ok" if self.healthy else "unhealthy",
            "checks": {
                name: {"ok": passed, "detail": detail}
                for name, (passed, detail) in self.checks.items()
            },
        }


class ObservabilityServer:
    """A background HTTP server exposing one registry (plus health/status)."""

    def __init__(
        self,
        registry,
        *,
        health: Optional[HealthProbe] = None,
        status: Optional[StatusProbe] = None,
        debug: Optional[StatusProbe] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self._health = health
        self._status = status
        self._debug = debug
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server's spelling
                try:
                    server._serve(self)
                except BrokenPipeError:  # client went away mid-response
                    pass

            def log_message(self, _format, *_args) -> None:
                pass  # scrapes are periodic; stderr noise helps nobody

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        self._closed = False

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _serve(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.registry.render().encode("utf-8")
            self._respond(handler, 200, CONTENT_TYPE, body)
        elif path == "/healthz":
            report = self.health_report()
            body = (json.dumps(report.as_dict(), indent=2) + "\n").encode("utf-8")
            self._respond(
                handler, 200 if report.healthy else 503, "application/json", body
            )
        elif path == "/statusz":
            status = self._status() if self._status is not None else {}
            body = (json.dumps(status, indent=2, default=str) + "\n").encode("utf-8")
            self._respond(handler, 200, "application/json", body)
        elif path == "/debug/queries":
            debug = self._debug() if self._debug is not None else {}
            body = (json.dumps(debug, indent=2, default=str) + "\n").encode("utf-8")
            self._respond(handler, 200, "application/json", body)
        else:
            self._respond(
                handler, 404, "text/plain; charset=utf-8",
                b"unknown path; try /metrics, /healthz, /statusz or /debug/queries\n",
            )

    @staticmethod
    def _respond(
        handler: BaseHTTPRequestHandler, code: int, content_type: str, body: bytes
    ) -> None:
        handler.send_response(code)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def health_report(self) -> HealthReport:
        """Run the health checks now (also usable without HTTP)."""
        checks = self._health() if self._health is not None else {}
        return HealthReport(dict(checks))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __str__(self) -> str:
        return f"ObservabilityServer(http://{self.host}:{self.port})"
