"""Evaluation instrumentation.

The point of the paper's Section 4 is not only *what* the one-sided
algorithms compute but *how* they compute it:

* **Property 1** — simple termination conditions (``while carry not empty``),
* **Property 2** — minimal state (only ``seen`` is remembered),
* **Property 3** — no unrestricted lookups on nonrecursive relations.

:class:`EvaluationStats` gives every evaluation strategy in the library a
common vocabulary of counters so the benchmark harness can report those
properties side by side: tuples examined (retrieved from storage), tuples
produced, join probes, unrestricted lookups, fixpoint iterations, and the
peak size of the state the algorithm keeps between iterations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..datalog.errors import QueryTimeout

# ----------------------------------------------------------------------
# cooperative per-thread evaluation deadlines
# ----------------------------------------------------------------------
# Every fixpoint driver in the library calls ``stats.record_iteration()``
# once per outer loop pass, which makes that hook the one place a deadline
# can be enforced across all engines (kernel, columnar, magic, counting, the
# Figure 9 schema) without threading a parameter through every driver.  The
# deadline is thread-local: the serving layer arms it around one query's
# evaluation in one reader thread; concurrent queries are unaffected.
class _Deadline(threading.local):
    #: a class-level default, so a thread that never armed one reads ``None``
    #: without raising and swallowing an ``AttributeError`` first
    value: Optional[float] = None


_deadline_local = _Deadline()


def armed_deadline() -> Optional[float]:
    """The calling thread's armed :func:`evaluation_deadline`, if any."""
    return _deadline_local.value


def check_deadline() -> None:
    """Raise :class:`QueryTimeout` when the thread's armed deadline passed."""
    deadline = _deadline_local.value
    if deadline is not None and time.perf_counter() >= deadline:
        raise QueryTimeout(
            f"evaluation exceeded its deadline by "
            f"{time.perf_counter() - deadline:.3f}s"
        )


@contextmanager
def evaluation_deadline(deadline: Optional[float]):
    """Arm a cooperative deadline for the enclosed evaluation.

    ``deadline`` is an absolute ``time.perf_counter()`` instant (``None``
    disarms nothing and arms nothing).  Nested deadlines keep the tighter
    one; the previous value is always restored on exit, so reader-pool
    threads never leak a stale deadline into the next query.
    """
    if deadline is None:
        yield
        return
    previous = _deadline_local.value
    _deadline_local.value = deadline if previous is None else min(previous, deadline)
    try:
        yield
    finally:
        _deadline_local.value = previous


# ----------------------------------------------------------------------
# per-query profile channel
# ----------------------------------------------------------------------
# The same thread-local channel idiom as the deadline above, reused for
# EXPLAIN ANALYZE: ``answer(profile=True)`` (and the differential harness)
# arms a profile recorder around one query's evaluation in one thread.
# Engine hot paths then ask one one-attribute-read question — "is a profile
# armed?" — before recording a dispatch decision or an iteration sample, so
# an unprofiled query pays a ``None`` check and nothing else.  The recorder
# is deliberately opaque here (it is a
# :class:`repro.obs.profile.ProfileRecorder`); the engine talks to it duck
# typed, keeping ``repro.engine`` free of any import of ``repro.obs``.
class _Trace(threading.local):
    #: a class-level default, as for the deadline: an unarmed read raises nothing
    profile = None


_trace_local = _Trace()


def active_profile():
    """The calling thread's armed profile recorder, if any."""
    return _trace_local.profile


@contextmanager
def query_trace(profile):
    """Arm a per-query profile recorder for this thread.

    Nested arming stacks: the previous recorder is always restored on exit,
    so a reader-pool thread never leaks one query's profile into the next.
    """
    previous = _trace_local.profile
    _trace_local.profile = profile
    try:
        yield
    finally:
        _trace_local.profile = previous


@dataclass
class EvaluationStats:
    """Counters accumulated during one evaluation run."""

    #: tuples retrieved from stored relations (after index restriction)
    tuples_examined: int = 0
    #: tuples inserted into derived relations / carry / seen / answers
    tuples_produced: int = 0
    #: number of index probes / scans issued against stored relations
    lookups: int = 0
    #: lookups issued with no bound column at all ("unrestricted", Property 3)
    unrestricted_lookups: int = 0
    #: fixpoint / while-loop iterations (Property 1)
    iterations: int = 0
    #: join plans compiled *by this call*: a program keeps its plans, so a warm call compiles none
    plans_compiled: int = 0
    #: peak number of tuples kept as inter-iteration state (Property 2); a delta
    #: loop's state is its deltas, in maintenance too (inserted / doomed rows)
    peak_state_tuples: int = 0
    #: sum over state relations of (arity of the relation), at the peak
    peak_state_columns: int = 0
    #: tuples added to a materialized view by incremental maintenance
    tuples_inserted: int = 0
    #: tuples removed from a materialized view by incremental maintenance
    #: (DRed counts its whole overestimate here; the put-back phase counts
    #: reinstated tuples under ``tuples_rederived``)
    tuples_deleted: int = 0
    #: tuples put back by DRed rederivation after an over-deletion
    tuples_rederived: int = 0
    #: wall-clock seconds, when measured through :meth:`timed`
    elapsed_seconds: float = 0.0
    #: free-form per-strategy extras (e.g. "magic_rules", "carry_arity")
    extra: Dict[str, float] = field(default_factory=dict)

    _started_at: Optional[float] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # recording helpers
    # ------------------------------------------------------------------
    def record_lookup(self, examined: int, restricted: bool) -> None:
        """Record one probe against a stored relation."""
        self.lookups += 1
        if not restricted:
            self.unrestricted_lookups += 1
        self.tuples_examined += examined

    def record_produced(self, count: int = 1) -> None:
        """Record tuples added to a derived relation."""
        self.tuples_produced += count

    def record_iteration(self) -> None:
        """Record one pass of the outer fixpoint / while loop.

        Doubles as the cooperative cancellation point: when the calling
        thread has an :func:`evaluation_deadline` armed and it has passed,
        this raises :class:`~repro.datalog.errors.QueryTimeout` instead of
        counting the pass, so ``iterations`` at the raise is the number of
        passes completed — one attribute read per fixpoint iteration when disarmed.
        """
        deadline = _deadline_local.value
        if deadline is not None and time.perf_counter() >= deadline:
            raise QueryTimeout(
                f"evaluation exceeded its deadline at iteration {self.iterations + 1}"
            )
        self.iterations += 1

    def record_plans_compiled(self) -> None:
        """Record one join plan compiled by this call (a kept plan reused is not counted)."""
        self.plans_compiled += 1

    def record_inserted(self, count: int = 1) -> None:
        """Record tuples a maintenance step added to a materialized view."""
        self.tuples_inserted += count

    def record_deleted(self, count: int = 1) -> None:
        """Record tuples a maintenance step removed from a materialized view."""
        self.tuples_deleted += count

    def record_rederived(self, count: int = 1) -> None:
        """Record tuples DRed put back after an over-deletion."""
        self.tuples_rederived += count

    def record_state(self, tuples: int, columns: int = 0) -> None:
        """Record the current size of the inter-iteration state.

        Call once per iteration with the total number of state tuples and the
        total number of state columns; peaks are tracked automatically.
        """
        self.peak_state_tuples = max(self.peak_state_tuples, tuples)
        self.peak_state_columns = max(self.peak_state_columns, columns)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def start_timer(self) -> None:
        """Start (or restart) the wall-clock timer."""
        self._started_at = time.perf_counter()

    def stop_timer(self) -> None:
        """Stop the timer and accumulate elapsed time."""
        if self._started_at is not None:
            self.elapsed_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    # ------------------------------------------------------------------
    # combination / presentation
    # ------------------------------------------------------------------
    def merge(self, other: "EvaluationStats") -> "EvaluationStats":
        """Accumulate another stats object into this one (returns ``self``)."""
        self.tuples_examined += other.tuples_examined
        self.tuples_produced += other.tuples_produced
        self.lookups += other.lookups
        self.unrestricted_lookups += other.unrestricted_lookups
        self.iterations += other.iterations
        self.plans_compiled += other.plans_compiled
        self.peak_state_tuples = max(self.peak_state_tuples, other.peak_state_tuples)
        self.peak_state_columns = max(self.peak_state_columns, other.peak_state_columns)
        self.tuples_inserted += other.tuples_inserted
        self.tuples_deleted += other.tuples_deleted
        self.tuples_rederived += other.tuples_rederived
        self.elapsed_seconds += other.elapsed_seconds
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value
        return self

    def as_dict(self) -> Dict[str, float]:
        """A flat dictionary view, convenient for report tables."""
        result: Dict[str, float] = {
            "tuples_examined": self.tuples_examined,
            "tuples_produced": self.tuples_produced,
            "lookups": self.lookups,
            "unrestricted_lookups": self.unrestricted_lookups,
            "iterations": self.iterations,
            "plans_compiled": self.plans_compiled,
            "peak_state_tuples": self.peak_state_tuples,
            "peak_state_columns": self.peak_state_columns,
            "tuples_inserted": self.tuples_inserted,
            "tuples_deleted": self.tuples_deleted,
            "tuples_rederived": self.tuples_rederived,
            "elapsed_seconds": self.elapsed_seconds,
        }
        result.update(self.extra)
        return result

    def __str__(self) -> str:
        return (
            f"examined={self.tuples_examined} produced={self.tuples_produced} "
            f"lookups={self.lookups} (unrestricted={self.unrestricted_lookups}) "
            f"iterations={self.iterations} peak_state={self.peak_state_tuples}"
        )


# ----------------------------------------------------------------------
# the registry bridge: per-query stats -> repro_engine_* metric families
# ----------------------------------------------------------------------
class NullStatsBridge:
    """The bridge when observability is off: ``record`` is one no-op call."""

    null = True

    def __init__(self) -> None:
        #: an empty aggregate so ``/statusz`` consumers need no special case
        self.totals = EvaluationStats()

    def record(self, strategy: str, stats: "EvaluationStats") -> None:
        pass


class StatsBridge:
    """Feeds per-query :class:`EvaluationStats` into ``repro_engine_*`` metrics.

    One bridge owns the engine-side metric families of a registry: a query
    counter plus ``tuples_examined``/``lookups`` histograms, each labeled by
    the evaluation strategy that produced the stats (so a scrape shows the
    paper's Property 1–3 cost profile per strategy, not one blurred total).
    The bridge also keeps a merged :class:`EvaluationStats` aggregate, and a
    registry collector mirrors its monotone totals into
    ``repro_engine_*_total`` counters at scrape time — the exposition always
    agrees with the in-process aggregate.

    ``record`` is called once per answered query (and once per maintenance
    round), never inside evaluation inner loops: instrumenting the engine at
    the stats boundary keeps the hot fixpoints untouched.
    """

    null = False

    #: log-spaced bounds for tuple/lookup *count* histograms (1 .. ~1M)
    COUNT_BUCKETS = tuple(4.0**exponent for exponent in range(11))

    def __init__(self, registry) -> None:
        self.totals = EvaluationStats()
        self._lock = threading.Lock()
        self._queries = registry.counter(
            "repro_engine_queries_total",
            "Queries evaluated, by strategy (snapshot lookups, maintenance).",
            labels=("strategy",),
        )
        self._examined = registry.histogram(
            "repro_engine_tuples_examined",
            "Tuples retrieved from stored relations per evaluation, by strategy.",
            labels=("strategy",),
            buckets=self.COUNT_BUCKETS,
        )
        self._lookups = registry.histogram(
            "repro_engine_lookups",
            "Index probes issued against stored relations per evaluation, by strategy.",
            labels=("strategy",),
            buckets=self.COUNT_BUCKETS,
        )
        registry.register_collector(self._collect)
        self._counters = {
            key: registry.counter(
                f"repro_engine_{key}_total", f"Total {key.replace('_', ' ')} across evaluations."
            )
            for key in (
                "tuples_examined",
                "tuples_produced",
                "lookups",
                "unrestricted_lookups",
                "iterations",
            )
        }

    def record(self, strategy: str, stats: "EvaluationStats") -> None:
        """Record one evaluation's stats under its strategy label."""
        with self._lock:
            self.totals.merge(stats)
        self._queries.labels(strategy).inc()
        self._examined.labels(strategy).observe(stats.tuples_examined)
        self._lookups.labels(strategy).observe(stats.lookups)

    def _collect(self) -> None:
        with self._lock:
            snapshot = self.totals.as_dict()
        for key, counter in self._counters.items():
            counter.set_total(snapshot[key])


def stats_bridge(registry) -> "StatsBridge":
    """The right bridge for ``registry`` (a no-op one for a NullRegistry)."""
    if getattr(registry, "null", False):
        return NullStatsBridge()
    return StatsBridge(registry)
