"""``DatalogService`` — the concurrent serving front door.

One service owns one :class:`repro.Session` and turns it into a multi-client
endpoint:

* **readers never block writers** — every query runs against the most
  recently *published* :class:`~repro.service.snapshot.ServiceSnapshot`
  (immutable, epoch-stamped, O(1) to publish), so a reader needs no lock at
  all: grabbing the snapshot reference is the entire synchronization;
* **writers never pay per-client maintenance** — ``insert``/``delete``
  enqueue tickets on a :class:`~repro.service.queue.WriteQueue`; a single
  flusher thread drains them per :class:`~repro.service.queue.FlushPolicy`
  and applies each drained batch as one coalesced maintenance round, then
  publishes the next epoch;
* **repeated queries cost a dict probe** — answers are memoized in an
  :class:`~repro.service.cache.EpochCache` keyed by the epoch the reader
  observed, invalidated per publication by exactly the predicates the
  maintenance round touched.

The synchronous :meth:`DatalogService.query` answers in the calling thread
(the cheapest path for clients that are themselves threads); ``submit``
dispatches to the service's reader pool and returns a
:class:`concurrent.futures.Future`.  ``barrier()`` flushes every write
enqueued before it and returns the published epoch, giving clients
read-your-writes when they want it.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from ..datalog.database import Database, check_arity
from ..datalog.errors import QueryTimeout, ReproError, SchemaError
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program
from ..engine.instrumentation import (
    EvaluationStats,
    evaluation_deadline,
    query_trace,
    stats_bridge,
)
from ..engine.query import QueryResult, SelectionQuery, answer, as_selection_query, lookup_result
from ..faults import fire as fire_fault
from ..incremental.session import RowsLike, Session, as_rows
from ..obs import (
    FlightRecorder,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    ObservabilityServer,
    ProfileRecorder,
    QueryProfile,
    Tracer,
)
from ..storage import DurableStore, StorageConfig, StorageError
from .cache import EpochCache
from .queue import FlushPolicy, ServiceClosed, WriteQueue, WriteTicket, coalesce
from .retry import (
    DEGRADED,
    HEALTH_STATE_CODES,
    HEALTHY,
    RECOVERING,
    RetryExhausted,
    RetryPolicy,
    ServiceDegraded,
    ServiceOverloaded,
)
from .snapshot import ServiceSnapshot, take_snapshot

_now = time.perf_counter


class _ClosedSession(NamedTuple):
    """What a closed service keeps of its :class:`Session`: the program."""

    program: Program


def _live_relations(session: Session) -> List[Relation]:
    """The session's stored EDB relations and its view's derived relations."""
    return [*session.database.relations(), *session.view.derived.values()]


@dataclass
class ServiceStats:
    """Pinned service counters, in the :class:`EvaluationStats` mold."""

    #: queries answered (cache hits, snapshot lookups and fallbacks alike)
    queries_served: int = 0
    #: queries answered straight from the epoch cache
    cache_hits: int = 0
    #: queries that had to consult the snapshot (and then primed the cache)
    cache_misses: int = 0
    #: cache misses answered by one frozen-relation lookup
    snapshot_lookups: int = 0
    #: cache misses answered by full evaluation over the snapshot database
    fallback_evaluations: int = 0
    #: client write requests accepted onto the queue
    writes_enqueued: int = 0
    #: write requests applied by the flusher (excludes barriers)
    writes_applied: int = 0
    #: drained batches that contained at least one write
    flushes: int = 0
    #: maintenance rounds those flushes cost: one per flush whose batch
    #: changed something (its deletes and inserts on every relation are one
    #: ``Session.mutate`` call), none when its net effect was empty
    maintenance_rounds: int = 0
    #: barrier requests served
    barriers: int = 0
    #: snapshot publications (epoch advances observed by readers)
    epochs_published: int = 0
    #: writes waiting on the queue right now (gauge; filled when the service
    #: copies its stats out, so operators see flusher backlog)
    queue_depth: int = 0
    #: entries currently held by the epoch cache (gauge; ditto)
    cache_entries: int = 0
    #: post-publication detaches of the session's live relations that took
    #: back a storage no reader could see any more (summed when copied out)
    storage_reclaims: int = 0
    #: ... that had to copy the row set and key dicts instead: cold start, or
    #: clients pinning more old epochs than a relation keeps standbys for
    storage_copies: int = 0

    def coalescing_factor(self) -> float:
        """Average writes amortized per flush (> 1.0 means coalescing paid off)."""
        return self.writes_applied / self.flushes if self.flushes else 0.0

    def cache_hit_rate(self) -> float:
        """Fraction of served queries answered from the epoch cache."""
        return self.cache_hits / self.queries_served if self.queries_served else 0.0

    def as_dict(self) -> Dict[str, float]:
        """A flat dictionary view, convenient for report tables and JSON."""
        return {
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "snapshot_lookups": self.snapshot_lookups,
            "fallback_evaluations": self.fallback_evaluations,
            "writes_enqueued": self.writes_enqueued,
            "writes_applied": self.writes_applied,
            "flushes": self.flushes,
            "maintenance_rounds": self.maintenance_rounds,
            "barriers": self.barriers,
            "epochs_published": self.epochs_published,
            "queue_depth": self.queue_depth,
            "cache_entries": self.cache_entries,
            "storage_reclaims": self.storage_reclaims,
            "storage_copies": self.storage_copies,
            "coalescing_factor": round(self.coalescing_factor(), 3),
            "cache_hit_rate": round(self.cache_hit_rate(), 3),
        }

    def __str__(self) -> str:
        return (
            f"queries={self.queries_served} (hits={self.cache_hits}) "
            f"writes={self.writes_applied}/{self.flushes} flushes "
            f"rounds={self.maintenance_rounds} epochs={self.epochs_published} "
            f"queue={self.queue_depth} cache={self.cache_entries}"
        )


@dataclass
class RobustnessStats:
    """Degradation/recovery counters, kept off the pinned :class:`ServiceStats`.

    Same precedent as :class:`~repro.storage.store.StorageStats`: tests pin
    ``ServiceStats.as_dict()`` exactly, so the robustness layer carries its
    own counter block (surfaced via ``DatalogService.robustness``,
    ``/statusz`` and the ``repro_service_*`` metric families).
    """

    #: transient storage-append failures that were retried (per attempt)
    retries: int = 0
    #: batches whose appends failed through every retry attempt
    retry_exhaustions: int = 0
    #: HEALTHY -> DEGRADED transitions
    degradations: int = 0
    #: returns to HEALTHY (from DEGRADED or RECOVERING)
    recoveries: int = 0
    #: background storage probes attempted
    probes: int = 0
    #: writes shed by admission control (``FlushPolicy.max_pending``)
    writes_shed: int = 0
    #: writes refused because the service was degraded (read-only)
    writes_refused: int = 0
    #: queries that missed their ``timeout=`` deadline
    query_timeouts: int = 0
    #: exceptions that escaped the flush loop outside batch apply
    flusher_faults: int = 0
    #: transient compaction failures (service stayed up, WAL-only fallback)
    compaction_failures: int = 0
    #: cumulative seconds spent not-HEALTHY (live window included when the
    #: stats are copied out while degraded)
    degraded_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """A flat dictionary view, convenient for report tables and JSON."""
        return {
            "retries": self.retries,
            "retry_exhaustions": self.retry_exhaustions,
            "degradations": self.degradations,
            "recoveries": self.recoveries,
            "probes": self.probes,
            "writes_shed": self.writes_shed,
            "writes_refused": self.writes_refused,
            "query_timeouts": self.query_timeouts,
            "flusher_faults": self.flusher_faults,
            "compaction_failures": self.compaction_failures,
            "degraded_seconds": round(self.degraded_seconds, 6),
        }

    def __str__(self) -> str:
        return (
            f"retries={self.retries} exhaustions={self.retry_exhaustions} "
            f"degradations={self.degradations} recoveries={self.recoveries} "
            f"shed={self.writes_shed} timeouts={self.query_timeouts}"
        )


@dataclass
class ServiceResult:
    """A query answer plus the exact epoch (and snapshot) it observed."""

    result: QueryResult
    epoch: int
    snapshot: ServiceSnapshot = field(repr=False)
    cached: bool = False

    @property
    def answers(self) -> Set[Row]:
        return self.result.answers

    @property
    def strategy(self) -> str:
        return self.result.strategy

    @property
    def stats(self) -> EvaluationStats:
        return self.result.stats

    @property
    def profile(self) -> Optional[QueryProfile]:
        """The EXPLAIN ANALYZE record, when the query ran with ``profile=True``
        (or was sampled / force-profiled)."""
        return self.result.profile

    def __len__(self) -> int:
        return len(self.result.answers)

    def __str__(self) -> str:
        return f"{self.result} @epoch {self.epoch}"


class DatalogService:
    """A thread-safe serving layer over one program's maintained views."""

    def __init__(
        self,
        program: Optional[Union[Program, str]] = None,
        database: Optional[Database] = None,
        *,
        readers: int = 4,
        flush_policy: Optional[FlushPolicy] = None,
        cache_entries: int = 1024,
        name: str = "default",
        max_unfold_depth: int = 8,
        storage: Optional[Union[DurableStore, str, Path]] = None,
        storage_config: Optional[StorageConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        retry: Optional[RetryPolicy] = None,
        profile_sample: int = 0,
        flight_capacity: int = 128,
    ) -> None:
        registry = metrics if metrics is not None else NullRegistry()
        trace = tracer if tracer is not None else NullTracer()
        store: Optional[DurableStore] = None
        recovered = None
        if storage is not None:
            store = (
                storage
                if isinstance(storage, DurableStore)
                else DurableStore(storage, storage_config)
            )
            # instrument before recovery so the recovery replay is traced
            store.instrument(registry, trace)
            if store.has_state():
                if database is not None:
                    raise StorageError(
                        f"storage directory {store.directory} already holds "
                        "durable state, but an explicit database was passed; "
                        "starting a second history there would silently lose "
                        "acknowledged writes on the next recovery.  Recover "
                        "the existing state (DatalogService.open(path), or "
                        "database=None) or point the service at a fresh "
                        "directory"
                    )
                recovered = store.recover()
                database = recovered.database
                if program is None:
                    program = recovered.program_text
        if program is None:
            raise ValueError(
                "DatalogService needs a program (none given and the storage "
                "directory holds no recoverable state)"
            )
        self.session = Session(
            program, database, name=name, max_unfold_depth=max_unfold_depth
        )
        self.queue = WriteQueue(flush_policy)
        self.cache = EpochCache(cache_entries)
        self._stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self.storage = store
        self._storage_failed: Optional[BaseException] = None
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.robust = RobustnessStats()
        self._health = HEALTHY
        self._health_lock = threading.Lock()
        self._degraded_since: Optional[float] = None
        #: batches applied in memory whose WAL append exhausted its retries;
        #: re-logged (in order) by the recovery probe before HEALTHY returns
        self._unlogged: List[Tuple[int, List[Tuple[str, str, Tuple[Row, ...]]]]] = []
        self._probe: Optional[threading.Thread] = None
        self._probe_wake = threading.Event()
        self._close_lock = threading.Lock()
        if recovered is not None:
            # rebuilding views from the recovered EDB advanced the registry
            # arbitrarily; re-anchor so published epochs continue the durable
            # history exactly where the WAL left it
            self.session.registry.restore_epoch(recovered.epoch)
        if store is not None:
            store.attach(
                str(self.session.program),
                self.session.database,
                self.session.registry.epoch,
                replayed_records=recovered.records_replayed if recovered else 0,
            )
        self._snapshot = take_snapshot(self.session)
        self.cache.advance(self._snapshot.epoch, set())
        #: 1/N sampling rate for automatic profiling of cache-missing queries
        #: (0 = explicit ``profile=True`` only); cache hits are never sampled
        #: (nothing evaluates), and slow/timeout/error queries are always
        #: profiled post hoc regardless
        self.profile_sample = profile_sample
        self._profile_seq = itertools.count(1)
        self._trace_seq = itertools.count(1)
        #: recent query profiles + live in-flight queries (``/debug/queries``)
        self.flight = FlightRecorder(flight_capacity)
        self._closed = False
        self._obs_server: Optional[ObservabilityServer] = None
        self._install_observability(registry, trace)
        self._readers = ThreadPoolExecutor(
            max_workers=max(1, readers), thread_name_prefix="repro-reader"
        )
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-flusher", daemon=True
        )
        self._flusher.start()

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        program: Optional[Union[Program, str]] = None,
        *,
        storage_config: Optional[StorageConfig] = None,
        **kwargs,
    ) -> "DatalogService":
        """A durable service over ``path``: recover it, or initialize it fresh.

        An existing store needs no ``program`` — the snapshot carries the
        program text; recovery loads the latest snapshot, replays the WAL,
        and rebuilds the views from the recovered EDB.  A fresh directory
        requires ``program`` and writes its genesis snapshot immediately.
        """
        return cls(program, storage=path, storage_config=storage_config, **kwargs)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _install_observability(self, registry, tracer) -> None:
        """Create every instrument the hot paths touch, against ``registry``.

        Called at construction with the :class:`~repro.obs.NullRegistry` /
        :class:`~repro.obs.NullTracer` pair (the free default) or the
        caller's real pair, and again by :meth:`serve_metrics` when it
        upgrades a null service in place.  Latency histograms record inline;
        the pinned :class:`ServiceStats` counters are mirrored by a scrape-time
        collector, so ``/metrics`` always agrees with ``stats.as_dict()``.
        """
        self.metrics = registry
        self.tracer = tracer
        self._engine_bridge = stats_bridge(registry)
        query_seconds = registry.histogram(
            "repro_service_query_seconds",
            "Query latency through DatalogService, by answering outcome.",
            labels=("outcome",),
        )
        # children resolve once, here, down to the bound observe method —
        # the hot path is one dict probe and one call
        self._query_seconds = {
            outcome: query_seconds.labels(outcome).observe
            for outcome in ("cache_hit", "snapshot_lookup", "fallback", "timeout")
        }
        self._flush_seconds = registry.histogram(
            "repro_service_flush_seconds",
            "Latency of one coalesced flush (maintenance + WAL + publication).",
        )
        self._publish_seconds = registry.histogram(
            "repro_service_publish_seconds",
            "Latency of snapshot publication (freeze + cache advance + swap).",
        )
        self._service_counters = {
            key: registry.counter(
                f"repro_service_{key}_total",
                f"Total {key.replace('_', ' ')} (see ServiceStats.{key}).",
            )
            for key in (
                "queries_served",
                "cache_hits",
                "cache_misses",
                "snapshot_lookups",
                "fallback_evaluations",
                "writes_enqueued",
                "writes_applied",
                "flushes",
                "maintenance_rounds",
                "barriers",
                "epochs_published",
                "storage_reclaims",
                "storage_copies",
            )
        }
        self._service_gauges = {
            key: registry.gauge(
                f"repro_service_{key}",
                f"Current {key.replace('_', ' ')} (see ServiceStats.{key}).",
            )
            for key in ("queue_depth", "cache_entries", "coalescing_factor", "cache_hit_rate")
        }
        self._epoch_gauge = registry.gauge(
            "repro_service_epoch", "The epoch readers are currently served from."
        )
        self._health_gauge = registry.gauge(
            "repro_service_health_state",
            "Service health state (0=healthy, 1=degraded read-only, 2=recovering).",
        )
        self._robust_counters = {
            key: registry.counter(
                f"repro_service_{key}_total",
                f"Total {key.replace('_', ' ')} (see RobustnessStats.{key}).",
            )
            for key in (
                "retries",
                "retry_exhaustions",
                "degradations",
                "recoveries",
                "probes",
                "writes_shed",
                "writes_refused",
                "query_timeouts",
                "flusher_faults",
                "compaction_failures",
                "degraded_seconds",
            )
        }
        registry.register_collector(self._collect_service_metrics)
        if self.storage is not None:
            self.storage.instrument(registry, tracer)

    def _collect_service_metrics(self) -> None:
        """Scrape-time bridge: pinned ServiceStats -> repro_service_* values."""
        snapshot = self.stats.as_dict()
        for key, counter in self._service_counters.items():
            counter.set_total(snapshot[key])
        for key, gauge in self._service_gauges.items():
            gauge.set(snapshot[key])
        self._epoch_gauge.set(self.epoch)
        self._health_gauge.set(HEALTH_STATE_CODES[self._health])
        robust = self.robustness.as_dict()
        for key, counter in self._robust_counters.items():
            counter.set_total(robust[key])

    def serve_metrics(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> ObservabilityServer:
        """Expose ``/metrics``, ``/healthz``, ``/statusz`` and
        ``/debug/queries`` over HTTP.

        Starts a daemonized :class:`~repro.obs.ObservabilityServer` (pass
        ``port=0`` for an ephemeral port; read it back from the returned
        server's ``.port``).  A service constructed without a real registry
        is upgraded in place — ``serve_metrics`` *is* the opt-in — and the
        call is idempotent: a second call returns the running server.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._obs_server is not None:
            return self._obs_server
        if getattr(self.metrics, "null", False):
            tracer = self.tracer if not getattr(self.tracer, "null", False) else Tracer()
            self._install_observability(MetricsRegistry(), tracer)
        self._obs_server = ObservabilityServer(
            self.metrics,
            health=self._health_checks,
            status=self._status_report,
            debug=self.flight.as_dict,
            host=host,
            port=port,
        )
        return self._obs_server

    def _health_checks(self) -> Dict[str, Tuple[bool, str]]:
        """The ``/healthz`` probes: flusher alive, storage sound, epochs moving."""
        checks: Dict[str, Tuple[bool, str]] = {}
        alive = not self._closed and self._flusher.is_alive()
        checks["flusher_alive"] = (
            alive,
            "flusher thread is running" if alive else "flusher thread is not running",
        )
        if self.storage is None:
            checks["storage"] = (True, "in-memory service (no durable store)")
        else:
            failed = self._storage_failed
            if failed is None:
                checks["storage"] = (True, "durable store is healthy")
            elif self.retry_policy.retryable(failed):
                # degraded != dead: a transient failure with a recovery probe
                # pending keeps the service alive for reads and will heal —
                # /healthz stays green so orchestrators don't kill a replica
                # that is about to recover (the state is visible in /statusz
                # and the health-state gauge)
                checks["storage"] = (
                    True,
                    f"storage degraded (read-only), recovery in progress: {failed}",
                )
            else:
                checks["storage"] = (False, f"storage poisoned: {failed}")
        state = self._health
        checks["health_state"] = (
            state == HEALTHY or self._recoverable(),
            f"service is {state}"
            + ("" if state == HEALTHY else f" ({self.robust.degradations} degradation(s))"),
        )
        # "epochs advancing" operationally: no pending write may sit on the
        # queue far past the flush deadline — that is a wedged flusher, which
        # is exactly the state where published epochs stop moving
        age = self.queue.oldest_age()
        deadline = self.queue.policy.max_delay_seconds
        allowed = max(1.0, deadline * 50)
        checks["epoch_advancing"] = (
            age <= allowed,
            f"oldest pending write has waited {age:.3f}s "
            f"(flush deadline {deadline}s, epoch {self.epoch})",
        )
        return checks

    def _status_report(self) -> Dict[str, object]:
        """The ``/statusz`` payload: the three stats dicts + epoch + health."""
        storage_stats = self.storage_stats
        threshold = self.tracer.slow_threshold_seconds
        failed = self._storage_failed
        return {
            "epoch": self.epoch,
            "closed": self._closed,
            "health": {
                "state": self._health,
                "recoverable": self._recoverable(),
                "storage_failed": None if failed is None else repr(failed),
                "unlogged_batches": len(self._unlogged),
                "robustness": self.robustness.as_dict(),
            },
            "service": self.stats.as_dict(),
            "storage": storage_stats.as_dict() if storage_stats is not None else None,
            "engine": self._engine_bridge.totals.as_dict(),
            "tracing": {
                "spans_recorded": self.tracer.spans_recorded,
                "slow_spans_recorded": self.tracer.slow_spans_recorded,
                "slow_threshold_seconds": (
                    None if threshold == float("inf") else threshold
                ),
            },
            "queries": {
                "in_flight": self.flight.in_flight_count(),
                "profiles_recorded": self.flight.profiles_recorded,
                "profile_sample": self.profile_sample,
                "flight_capacity": self.flight.capacity,
            },
            "recent_slow_queries": [
                span.as_dict()
                for span in self.tracer.slow_spans()[-10:]
                if span.name == "slow_query"
            ],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Drain pending writes, stop the flusher and shut the reader pool.

        Idempotent and safe to race: the first caller does the shutdown,
        every later (or concurrent) call returns immediately — including
        after a first close that raised on a stuck flusher.  Shuts down the
        :meth:`serve_metrics` observability server (its listening socket and
        serving thread must not outlive the service) and the background
        recovery probe alongside the flusher, reader pool and durable store.

        A flusher that fails to exit within ``timeout`` is *surfaced*, not
        silently abandoned: every unresolved ticket — still queued *or* in
        the batch the stuck flusher already drained — is resolved with
        :class:`ServiceClosed` (no waiter blocks forever on a write no
        flusher will acknowledge; their ``wait`` re-raises it as
        :class:`ServiceClosed`), the reader pool and the durable store are
        shut down regardless, and this method raises :class:`ServiceClosed`.

        Once the flusher, the probe and the readers have stopped, a closed
        service hands back its heap (:meth:`_release`); the stuck-flusher path
        releases nothing, because its flusher may still be applying.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._probe_wake.set()  # a sleeping probe exits at its next wakeup
        self.queue.close()
        self._flusher.join(timeout=timeout)
        stuck = self._flusher.is_alive()
        abandoned = 0
        if stuck:
            abandoned = self.queue.fail_pending(
                ServiceClosed("service closed while its flusher was stuck")
            )
        try:
            self._readers.shutdown(wait=True)
        finally:
            probe = self._probe
            if probe is not None:
                probe.join(timeout=5.0)
            if self._obs_server is not None:
                self._obs_server.close()
            if self.storage is not None:
                self.storage.close()
        if stuck:
            raise ServiceClosed(
                f"flusher did not exit within {timeout}s; "
                f"{abandoned} unresolved ticket(s) were failed"
            )
        if probe is None or not probe.is_alive():
            self._release()

    def _release(self) -> None:
        """Drop everything a closed service holds that is as big as its data.

        Detaching the registry breaks the ``Database`` listener <-> registry
        cycle, and then dropping the session's database and views, the
        published snapshot and the cached answers lets reference counting
        free them here, not at the collector's next full pass.  The program,
        the counters (the relations' storage counters folded in) and the
        last epoch stay, so the read-only surface keeps answering.  A
        snapshot a caller took earlier stays valid through their reference.
        """
        session = self.session
        session.registry.detach()
        published = self._snapshot
        with self._stats_lock:
            for relation in _live_relations(session):
                self._stats.storage_reclaims += relation.storage_reclaims
                self._stats.storage_copies += relation.storage_copies
            self.session = _ClosedSession(session.program)
            self._snapshot = ServiceSnapshot(published.epoch, {}, {}, published.strategy)
        self.cache.clear()

    def __enter__(self) -> "DatalogService":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(
        self, name: str, rows: RowsLike, *, wait: bool = False, timeout: Optional[float] = None
    ) -> WriteTicket:
        """Enqueue an insertion; with ``wait=True`` block until it is applied."""
        return self._enqueue(WriteTicket(WriteTicket.INSERT, name, as_rows(rows)), wait, timeout)

    def delete(
        self, name: str, rows: RowsLike, *, wait: bool = False, timeout: Optional[float] = None
    ) -> WriteTicket:
        """Enqueue a deletion; with ``wait=True`` block until it is applied."""
        return self._enqueue(WriteTicket(WriteTicket.DELETE, name, as_rows(rows)), wait, timeout)

    def barrier(self, timeout: Optional[float] = None) -> int:
        """Flush every write enqueued before this call; returns the epoch.

        The returned epoch's published snapshot (and every later one)
        includes all of those writes — the read-your-writes handshake.
        """
        ticket = self.queue.put(WriteTicket(WriteTicket.BARRIER))
        with self._stats_lock:
            self._stats.barriers += 1
        return ticket.wait(timeout)

    def _enqueue(self, ticket: WriteTicket, wait: bool, timeout: Optional[float]) -> WriteTicket:
        if self._closed:
            raise ServiceClosed("service is closed")
        try:
            self.queue.put(ticket)
        except ServiceOverloaded:
            with self._stats_lock:
                self.robust.writes_shed += 1
            raise
        with self._stats_lock:
            self._stats.writes_enqueued += 1
        if wait:
            ticket.wait(timeout)
        return ticket

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[SelectionQuery, str],
        *,
        timeout: Optional[float] = None,
        profile: bool = False,
    ) -> ServiceResult:
        """Answer in the calling thread against the current published epoch.

        ``timeout`` is a per-query deadline in seconds: when it passes before
        the answer is ready, the query raises
        :class:`~repro.datalog.errors.QueryTimeout`.  Snapshot/cache answers
        are effectively instant; the deadline matters for fallback
        evaluations, where it is enforced cooperatively once per fixpoint
        iteration.

        ``profile=True`` is EXPLAIN ANALYZE: the returned result carries a
        :class:`~repro.obs.profile.QueryProfile` (``result.profile``) with
        the strategy, dispatch decisions, iteration timings, cache outcome
        and the answer's own :class:`EvaluationStats`; the profile is also
        recorded in the service's flight recorder (``/debug/queries``).
        """
        snapshot = self.snapshot()
        selection = as_selection_query(self.session.program, query)
        submitted = _now()
        deadline = None if timeout is None else submitted + timeout
        return self._answer(snapshot, selection, deadline, profile, submitted)

    def submit(
        self,
        query: Union[SelectionQuery, str],
        *,
        timeout: Optional[float] = None,
        profile: bool = False,
    ) -> "Future[ServiceResult]":
        """Dispatch to the reader pool; the epoch is pinned at submission time.

        The ``timeout`` deadline starts *now* — time spent waiting for a free
        reader thread counts against it, so a saturated pool fails queries
        crisply instead of letting them queue past their usefulness.  With
        ``profile=True`` the profile's queueing-vs-execution split shows
        exactly how long the query waited for a reader.
        """
        snapshot = self.snapshot()
        selection = as_selection_query(self.session.program, query)
        submitted = _now()
        deadline = None if timeout is None else submitted + timeout
        return self._readers.submit(
            self._answer, snapshot, selection, deadline, profile, submitted
        )

    def snapshot(self) -> ServiceSnapshot:
        """The currently published snapshot (immutable; safe to hold, also
        past :meth:`close`)."""
        # read before the check: close() marks the service closed before it
        # swaps in the empty snapshot, so a reader never answers from that
        snapshot = self._snapshot
        if self._closed:
            raise ServiceClosed("service is closed")
        return snapshot

    @property
    def epoch(self) -> int:
        """The epoch readers are currently served from (the last one, once closed)."""
        return self._snapshot.epoch

    @property
    def stats(self) -> ServiceStats:
        """A point-in-time copy of the service counters.

        The copy also carries the two operational gauges — current queue
        depth and epoch-cache entry count — which live in the queue/cache
        objects, not the counter block, and are sampled here, as are the two
        storage counters the live relations keep (folded into the counter
        block when :meth:`close` lets the relations go).
        """
        with self._stats_lock:
            copied = replace(self._stats)
            session = self.session
            if isinstance(session, Session):
                for relation in _live_relations(session):
                    copied.storage_reclaims += relation.storage_reclaims
                    copied.storage_copies += relation.storage_copies
        copied.queue_depth = self.queue.pending()
        copied.cache_entries = len(self.cache)
        return copied

    @property
    def storage_stats(self):
        """The durable store's counters, or ``None`` for an in-memory service.

        Kept off :class:`ServiceStats` (whose fields are pinned by tests) —
        durability is an optional layer with its own counter set.
        """
        return self.storage.stats if self.storage is not None else None

    @property
    def storage_failed(self) -> Optional[BaseException]:
        """The exception that killed the durable store, if any (reads still work)."""
        return self._storage_failed

    # ------------------------------------------------------------------
    # health-state machine
    # ------------------------------------------------------------------
    @property
    def health(self) -> str:
        """``HEALTHY``, ``DEGRADED`` (read-only) or ``RECOVERING``."""
        return self._health

    @property
    def robustness(self) -> RobustnessStats:
        """A point-in-time copy of the degradation/recovery counters.

        ``degraded_seconds`` includes the currently-open degraded window, so
        an operator watching the gauge sees it climb *during* an outage, not
        only after recovery.
        """
        with self._stats_lock:
            copied = replace(self.robust)
        since = self._degraded_since
        if since is not None:
            copied.degraded_seconds += _now() - since
        return copied

    def _recoverable(self) -> bool:
        """Whether the current degradation can heal without a restart."""
        failed = self._storage_failed
        return failed is None or self.retry_policy.retryable(failed)

    def _set_health(self, state: str) -> None:
        """One transition of the health machine, with degraded-time accounting."""
        with self._health_lock:
            previous = self._health
            if previous == state:
                return
            self._health = state
            now = _now()
            if previous == HEALTHY:
                self._degraded_since = now
            if state == HEALTHY:
                with self._stats_lock:
                    if self._degraded_since is not None:
                        self.robust.degraded_seconds += now - self._degraded_since
                    self.robust.recoveries += 1
                self._degraded_since = None
            elif previous == HEALTHY and state == DEGRADED:
                with self._stats_lock:
                    self.robust.degradations += 1

    def _degrade(self, error: BaseException, *, storage: bool) -> None:
        """Enter DEGRADED; start the background recovery probe when possible.

        ``storage=True`` records the error as the storage poison.  A probe
        only starts for failures that can heal: transient storage errors,
        and non-storage flusher faults (the service state itself is sound —
        one batch died).  A :class:`~repro.storage.SimulatedCrash` or a
        logic error keeps the service DEGRADED until a restart, preserving
        the crash/restore contract.
        """
        if storage:
            self._storage_failed = error
        self._set_health(DEGRADED)
        if not storage or self.retry_policy.retryable(error):
            self._start_probe()

    def _start_probe(self) -> None:
        with self._health_lock:
            if self._closed or (self._probe is not None and self._probe.is_alive()):
                return
            self._probe_wake.clear()
            self._probe = threading.Thread(
                target=self._probe_loop, name="repro-prober", daemon=True
            )
            self._probe.start()

    def _probe_loop(self) -> None:
        """Background recovery: re-probe storage until HEALTHY (or closed).

        Backoff reuses the retry policy's delay schedule; probing is
        unbounded in attempts because staying DEGRADED forever is exactly
        the failure mode this layer exists to remove — an *unrecoverable*
        failure never starts a probe in the first place.
        """
        attempt = 0
        while not self._closed:
            attempt += 1
            delay = self.retry_policy.delay(min(attempt, 64))
            if self._probe_wake.wait(delay):
                return  # close() is shutting the service down
            with self._stats_lock:
                self.robust.probes += 1
            self._set_health(RECOVERING)
            try:
                self._recover_storage()
            except BaseException:  # noqa: BLE001 - still down; keep probing
                self._set_health(DEGRADED)
                continue
            self._set_health(HEALTHY)
            return

    def _recover_storage(self) -> None:
        """One probe attempt: revive the store, re-log the backlog, publish.

        Runs under the registry lock so it cannot interleave with a flush.
        The unlogged backlog is re-appended oldest-first (replay's epoch
        guard makes any duplicate of a possibly-persisted earlier attempt
        harmless), and the epochs the degraded window applied in memory but
        never published are published now — readers jump forward to the
        state the WAL once again fully covers.
        """
        registry = self.session.registry
        with registry.lock:
            store = self.storage
            if store is not None:
                store.revive(registry.epoch)
                while self._unlogged:
                    epoch, applied = self._unlogged[0]
                    store.log_batch(epoch, applied)
                    self._unlogged.pop(0)
            self._storage_failed = None
            if registry.epoch != self._snapshot.epoch:
                _collected, touched = registry.collect_touched()
                published = take_snapshot(self.session)
                self.cache.advance(registry.epoch, touched)
                self._snapshot = published
                with self._stats_lock:
                    self._stats.epochs_published += 1

    # ------------------------------------------------------------------
    # internals: answering
    # ------------------------------------------------------------------
    def _answer(
        self,
        snapshot: ServiceSnapshot,
        selection: SelectionQuery,
        deadline: Optional[float] = None,
        want_profile: bool = False,
        submitted_at: Optional[float] = None,
    ) -> ServiceResult:
        started = _now()
        queued = started - submitted_at if submitted_at is not None else 0.0
        trace_id = f"q-{next(self._trace_seq):08x}"
        if deadline is not None and started >= deadline:
            # covers time spent queued behind a saturated reader pool too:
            # submit() stamps the deadline at submission, this runs later
            elapsed = self._record_timeout(
                selection, started, trace_id, cache="none", strategy="admission"
            )
            self._finish_profile(
                None, selection, trace_id, "timeout", "none", "admission",
                None, snapshot.epoch, queued, elapsed,
            )
            raise QueryTimeout(
                f"query on {selection.predicate} missed its deadline before evaluation began"
            )
        cached = self.cache.get(snapshot.epoch, selection)
        if cached is not None:
            result = QueryResult(
                selection,
                cached,
                EvaluationStats(),
                strategy=f"epoch-cache@{snapshot.epoch}",
                provenance=snapshot.provenance,
            )
            with self._stats_lock:
                self._stats.queries_served += 1
                self._stats.cache_hits += 1
            elapsed = self._observe_query(
                "cache_hit", selection, started,
                trace_id=trace_id, strategy=result.strategy, cache="hit",
            )
            if want_profile:
                recorder = ProfileRecorder(str(selection), trace_id=trace_id)
                self._finish_profile(
                    recorder, selection, trace_id, "ok", "hit", result.strategy,
                    result.stats, snapshot.epoch, queued, elapsed,
                    provenance=result.provenance, attach_to=result,
                )
            return ServiceResult(result, snapshot.epoch, snapshot, cached=True)

        # 1/N sampling targets queries that actually *evaluate*: a cache hit
        # is one dict probe with nothing to profile, and exempting it keeps
        # the hot hit path at literally zero profiling cost (the counter does
        # not even advance) while the ring fills with profiles that carry
        # plans and iterations
        sample = self.profile_sample
        sampled = (
            not want_profile and sample > 0 and next(self._profile_seq) % sample == 0
        )
        recorder = (
            ProfileRecorder(str(selection), trace_id=trace_id, sampled=sampled)
            if (want_profile or sampled)
            else None
        )
        relation = snapshot.views.get(selection.predicate)
        if relation is None and selection.predicate in snapshot.edb:
            relation = snapshot.edb[selection.predicate]
            strategy = f"snapshot-edb@{snapshot.epoch}"
            provenance = None
        else:
            strategy = f"snapshot-view@{snapshot.epoch} ({snapshot.strategy})"
            provenance = snapshot.provenance

        if relation is not None:
            result = lookup_result(selection, relation, strategy, provenance)
            kind = "snapshot_lookups"
            engine_strategy = "snapshot-lookup"
        else:
            # only fallback evaluations appear in the live in-flight table:
            # they are the queries that can actually run long enough to be
            # caught mid-flight (cache hits and frozen-relation lookups are
            # effectively instant)
            token = self.flight.begin(
                trace_id, str(selection), deadline=deadline, epoch=snapshot.epoch
            )
            try:
                with evaluation_deadline(deadline), query_trace(trace_id, recorder):
                    result = answer(self.session.program, snapshot.as_database(), selection)
            except QueryTimeout:
                elapsed = self._record_timeout(
                    selection, started, trace_id, cache="miss", strategy="fallback"
                )
                self._finish_profile(
                    recorder, selection, trace_id, "timeout", "miss", "fallback",
                    None, snapshot.epoch, queued, elapsed,
                )
                raise
            except ReproError:
                self._finish_profile(
                    recorder, selection, trace_id, "error", "miss", "fallback",
                    None, snapshot.epoch, queued, _now() - started,
                )
                raise
            finally:
                self.flight.end(token)
            engine_strategy = result.rung
            result.strategy = f"{result.strategy} @snapshot {snapshot.epoch}"
            kind = "fallback_evaluations"

        self.cache.put(snapshot.epoch, selection, result.answers)
        with self._stats_lock:
            self._stats.queries_served += 1
            self._stats.cache_misses += 1
            setattr(self._stats, kind, getattr(self._stats, kind) + 1)
        self._engine_bridge.record(engine_strategy, result.stats)
        elapsed = self._observe_query(
            "snapshot_lookup" if kind == "snapshot_lookups" else "fallback",
            selection,
            started,
            trace_id=trace_id,
            strategy=result.strategy,
            cache="miss",
        )
        if recorder is not None or elapsed >= self.tracer.slow_threshold_seconds:
            # armed profiling, or a slow query force-profiled post hoc
            self._finish_profile(
                recorder, selection, trace_id, "ok", "miss", result.strategy,
                result.stats, snapshot.epoch, queued, elapsed,
                provenance=result.provenance, attach_to=result,
            )
        return ServiceResult(result, snapshot.epoch, snapshot)

    def _finish_profile(
        self,
        recorder: Optional[ProfileRecorder],
        selection: SelectionQuery,
        trace_id: str,
        outcome: str,
        cache: str,
        strategy: str,
        stats: Optional[EvaluationStats],
        epoch: int,
        queued: float,
        execution: float,
        provenance=None,
        attach_to: Optional[QueryResult] = None,
    ) -> QueryProfile:
        """Assemble one query's profile and land it in the flight recorder.

        With no armed ``recorder`` this is the *forced* path — slow, timed
        out or errored queries get a post-hoc profile (no engine hooks ran,
        so it carries outcome/cache/timing but no plans or iterations).
        """
        if recorder is None:
            recorder = ProfileRecorder(str(selection), trace_id=trace_id, forced=True)
        profile = recorder.build(
            strategy=strategy,
            stats=stats if stats is not None else EvaluationStats(),
            outcome=outcome,
            cache=cache,
            epoch=epoch,
            queued_seconds=queued,
            execution_seconds=execution,
            provenance=provenance,
            fell_through=attach_to.fell_through if attach_to is not None else (),
        )
        self.flight.record(profile)
        if attach_to is not None:
            attach_to.profile = profile
        return profile

    def _record_timeout(
        self,
        selection: SelectionQuery,
        started: float,
        trace_id: Optional[str] = None,
        *,
        cache: Optional[str] = None,
        strategy: Optional[str] = None,
    ) -> float:
        """Count one missed query deadline (kept off the pinned ServiceStats)."""
        with self._stats_lock:
            self.robust.query_timeouts += 1
        return self._observe_query(
            "timeout", selection, started,
            trace_id=trace_id, strategy=strategy, cache=cache,
        )

    def _observe_query(
        self,
        outcome: str,
        selection: SelectionQuery,
        started: float,
        *,
        trace_id: Optional[str] = None,
        strategy: Optional[str] = None,
        cache: Optional[str] = None,
    ) -> float:
        """Record one answered query's latency (and maybe a slow-query span).

        With observability off both calls are no-ops; the span is only
        materialized when the latency clears the tracer's slow threshold, so
        the fast path never allocates one.  Slow-query records carry the
        query's trace ID, strategy, epoch and cache outcome, linking each
        log entry to its :class:`~repro.obs.profile.QueryProfile`.  Returns
        the elapsed seconds so callers reuse the measurement.
        """
        elapsed = _now() - started
        self._query_seconds[outcome](elapsed)
        if elapsed >= self.tracer.slow_threshold_seconds:
            self.tracer.record(
                "slow_query",
                elapsed,
                predicate=selection.predicate,
                outcome=outcome,
                epoch=self.epoch,
                trace_id=trace_id,
                strategy=strategy,
                cache=cache,
            )
        return elapsed

    # ------------------------------------------------------------------
    # internals: flushing
    # ------------------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            try:
                batch = self.queue.drain()
            except BaseException as exc:  # noqa: BLE001 - the loop itself must not die silently
                self._flusher_fault(exc, batch=None)
                return
            if batch is None:
                return
            if not batch:
                continue
            try:
                self._apply(batch)
            except BaseException as exc:  # noqa: BLE001 - see _flusher_fault
                self._flusher_fault(exc, batch=batch)

    def _flusher_fault(self, exc: BaseException, batch) -> None:
        """An exception escaped the flush loop outside batch apply.

        This used to kill the flusher thread silently: waiters blocked until
        a ``wait`` timeout or ``close()``'s stuck-flusher path, and nothing
        recorded why.  Now the affected tickets fail crisply, the health
        machine transitions, and — when the drain loop itself is still
        sound — the flusher keeps serving later batches.  A failed *drain*
        is not survivable (the loop cannot continue), so that path fails
        everything pending and leaves the service DEGRADED without a probe:
        with no flusher, returning to HEALTHY would accept writes nothing
        will ever apply.
        """
        with self._stats_lock:
            self.robust.flusher_faults += 1
        if batch is None:
            self.queue.fail_pending(exc)
            if not self._closed:
                self._set_health(DEGRADED)
            return
        for ticket in batch:
            ticket.resolve(error=exc)
        if not self._closed:
            self._degrade(exc, storage=False)

    def _apply(self, batch) -> None:
        """Apply one drained batch as one maintenance round.

        Each write ticket is checked first (:meth:`_admit`): one that cannot
        apply fails alone and leaves no trace.  The rest, coalesced to its net
        effect per (relation, row), is one :meth:`Session.mutate` call — one
        round over every relation it touches, one epoch.  Durability order:
        the round is applied in memory, **logged to the WAL (and fsynced)**,
        and only then published and acknowledged — a resolved ticket implies
        the write is on disk.  A failure inside the round itself fails every
        ticket of the batch.  A storage failure poisons the service's write
        path (`_storage_failed`): further flushes are refused outright,
        because publishing epochs the disk never saw would break the recovery
        contract; reads keep serving the last published epoch.
        """
        writes = [ticket for ticket in batch if not ticket.is_barrier]
        registry = self.session.registry
        flush_started = _now()
        publish_elapsed = None
        span = self.tracer.span("flush", tickets=len(batch), writes=len(writes))
        span.__enter__()
        try:
            if self._health != HEALTHY:
                cause = self._storage_failed
                if cause is not None and not self.retry_policy.retryable(cause):
                    # permanent poison keeps the historical contract: refuse
                    # outright (waiters see a FlushError), because publishing
                    # epochs the disk never saw breaks the recovery contract
                    raise StorageError(
                        "durable storage failed; the service refuses further writes: "
                        f"{cause}"
                    ) from cause
                with self._stats_lock:
                    self.robust.writes_refused += len(writes)
                raise ServiceDegraded(
                    f"service is {self._health} (read-only); "
                    "the write was refused and is safe to retry"
                    + (f" (cause: {cause})" if cause is not None else "")
                )
            fire_fault("service.flush")
            with registry.lock:
                writes = self._admit(writes)
                groups = coalesce(writes)
                epoch_before = registry.epoch
                deleted, inserted = self.session.mutate(
                    {group.relation: group.deletes for group in groups if group.deletes},
                    {group.relation: group.inserts for group in groups if group.inserts},
                )
                epoch = registry.epoch
                rounds = epoch - epoch_before
                if rounds:
                    self._engine_bridge.record("maintenance", registry.last_stats)
                if rounds and self.storage is not None:
                    self._log_applied(
                        epoch,
                        [("delete", name, rows) for name, rows in deleted.items()]
                        + [("insert", name, rows) for name, rows in inserted.items()],
                    )
                published = None
                touched: Set[str] = set()
                publish_started = _now()
                if epoch != self._snapshot.epoch:
                    _collected, touched = registry.collect_touched()
                    published = take_snapshot(self.session)
            if published is not None:
                # cache first, snapshot second: a reader racing the publication
                # either misses (old entries were dropped) or still reads the
                # old epoch — never a new-epoch hit on stale answers
                self.cache.advance(epoch, touched)
                self._snapshot = published
                publish_elapsed = _now() - publish_started
            with self._stats_lock:
                if writes:
                    self._stats.flushes += 1
                    self._stats.writes_applied += len(writes)
                    self._stats.maintenance_rounds += rounds
                if published is not None:
                    self._stats.epochs_published += 1
            self._maybe_compact(epoch)
            span.annotate(epoch=epoch, rounds=rounds, published=published is not None)
            for ticket in batch:
                ticket.resolve(epoch=epoch)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiting clients
            span.annotate(error=repr(exc))
            for ticket in batch:
                ticket.resolve(error=exc)
        finally:
            span.__exit__(None, None, None)
            if writes:
                self._flush_seconds.observe(_now() - flush_started)
            if publish_elapsed is not None:
                self._publish_seconds.observe(publish_elapsed)

    def _admit(self, writes: List[WriteTicket]) -> List[WriteTicket]:
        """The write tickets that can apply; each other one fails alone.

        An insert whose rows do not fit its relation's arity — the stored
        one, the program's, or the one an earlier ticket of the batch gave a
        new relation — resolves with its :class:`SchemaError` (its waiter
        sees a ``FlushError`` caused by it) and stays out of the round.
        """
        arities: Dict[str, int] = {}
        admitted = []
        for ticket in writes:
            if ticket.op == WriteTicket.INSERT and ticket.rows:
                name = ticket.relation
                arity = arities.get(name, self.session.arity_of(name))
                arity = len(ticket.rows[0]) if arity is None else arity
                try:
                    check_arity(name, arity, ticket.rows)
                except SchemaError as exc:
                    ticket.resolve(error=exc)
                    continue
                arities[name] = arity
            admitted.append(ticket)
        return admitted

    def _log_applied(
        self, epoch: int, applied: List[Tuple[str, str, Tuple[Row, ...]]]
    ) -> None:
        """Durably log the ops this round applied, retrying transient failures.

        Runs under the registry lock (readers never take it, so backoff
        sleeps here cost writers latency, not readers).  Each retry reopens
        the log in a fresh segment first (:meth:`DurableStore.revive`) — the
        old segment may hold a torn frame or a record whose fsync failed;
        replay's epoch guard makes a duplicate of that record harmless.

        On exhaustion the batch is parked on the unlogged backlog, the
        service degrades (read-only) with a recovery probe pending, and the
        batch's tickets fail with :class:`~repro.service.retry.RetryExhausted`
        — retryable by contract: resubmitting the same rows after recovery
        is idempotent.  A non-transient failure (a
        :class:`~repro.storage.SimulatedCrash`, a logic error) skips the
        retries and degrades without a probe — the historical poison-forever
        contract, now observable as a health state.
        """
        store = self.storage
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                if attempt > 1:
                    store.revive(epoch)
                store.log_batch(epoch, applied)
                return
            except BaseException as exc:  # noqa: BLE001 - classified below
                last = exc
                if not policy.retryable(exc) or attempt >= policy.max_attempts:
                    break
                with self._stats_lock:
                    self.robust.retries += 1
                time.sleep(policy.delay(attempt))
                attempt += 1
        if policy.retryable(last):
            with self._stats_lock:
                self.robust.retry_exhaustions += 1
            self._unlogged.append((epoch, list(applied)))
            error = RetryExhausted(attempt, last)
            error.__cause__ = last
            self._degrade(error, storage=True)
            raise error
        self._degrade(last, storage=True)
        raise last

    def _maybe_compact(self, epoch: int) -> None:
        """Snapshot + WAL reset once the log backlog reaches the interval.

        Runs after publication, so a compaction failure cannot fail the
        batch whose writes are already durable and visible.  A *transient*
        failure that left the store alive (a failed snapshot write — the
        store falls back to WAL-only operation) is counted and retried at
        the next flush; anything that killed the store degrades the service
        (with a recovery probe when the failure is transient).
        """
        store = self.storage
        if store is None or not store.should_compact():
            return
        try:
            with self.session.registry.lock:
                store.compact(epoch, self.session.database.relations())
        except BaseException as exc:  # noqa: BLE001 - see docstring
            with self._stats_lock:
                self.robust.compaction_failures += 1
            if store.failure is None:
                # the store survived (WAL-only fallback); stay HEALTHY —
                # appends still work and the next flush retries compaction
                return
            self._degrade(exc, storage=True)

    def __str__(self) -> str:
        session = self.session
        state = session.view if isinstance(session, Session) else "closed"
        return f"DatalogService(epoch={self.epoch}, {state!s})"
