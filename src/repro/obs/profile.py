"""Per-query profiling: EXPLAIN / EXPLAIN ANALYZE and the flight recorder.

The service-level observability of :mod:`repro.obs.metrics` aggregates; this
module explains *one query*:

* :class:`QueryProfile` — everything one query did: its text and trace ID,
  the strategy the front door picked and the optimizer rewrites that drove
  it, the compiled-plan shape per rule (join order plus the dispatch:
  generated kernel or columnar batch, with the adaptive
  profitability score where one was computed), per-stratum and
  per-fixpoint-iteration timings with delta sizes, the full
  :class:`~repro.engine.instrumentation.EvaluationStats`, the cache outcome
  (EpochCache and PlanCache), the epoch observed, the queueing-vs-execution
  split and the outcome — renderable as text (:meth:`QueryProfile.render`)
  or JSON (:meth:`QueryProfile.as_dict`);
* :class:`ProfileRecorder` — the mutable sink the engine hot paths feed
  while a profile is armed on the thread-local channel of
  :mod:`repro.engine.instrumentation` (``query_trace``); every hook is one
  ``getattr`` + ``None`` check when disarmed, so unprofiled queries pay
  nothing measurable;
* :class:`FlightRecorder` — a bounded ring of recent profiles, served as
  JSON at ``/debug/queries`` by the
  :class:`~repro.obs.exporter.ObservabilityServer`;
* :func:`explain` — the plan-only half: render the
  :class:`~repro.engine.query.QueryPlan` that
  :func:`repro.engine.query.answer` executes — strategy, compiled join
  plans, fallbacks — **without executing anything**.

``answer(..., profile=True)`` is the EXPLAIN ANALYZE half: the same profile,
filled in by an actual run.  ``DatalogService.query(..., profile=True)``
profiles a served query, which is a cache hit or one snapshot lookup: its
strategy, cache outcome, epoch, timings and stats.  Only a caller's
``profile=True`` builds a profile; a slow served query leaves a
``slow_query`` span in the :class:`~repro.obs.trace.Tracer` instead.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine.instrumentation import EvaluationStats

__all__ = [
    "FlightRecorder",
    "IterationSample",
    "PlanProfile",
    "ProfileRecorder",
    "QueryProfile",
    "StratumDecision",
    "explain",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-character trace ID (unique per query, cheap to log)."""
    return uuid.uuid4().hex[:16]


# ----------------------------------------------------------------------
# the profile's building blocks
# ----------------------------------------------------------------------
@dataclass
class PlanProfile:
    """One compiled rule's shape and the dispatch decision that ran it."""

    #: the rule, as parsed (head :- body)
    rule: str
    #: body predicates in join order, annotated with their probe signature:
    #: ``p[probe 0,1]`` (index probe on those columns) or ``p[scan]``; the
    #: evaluator's own input relations read ``input p/arity[...]``
    join_order: Tuple[str, ...]
    #: ``kernel`` (``interpreted`` on the reference step machine of a test)
    dispatch: str
    #: free-form extra (e.g. the body relation the run found missing)
    detail: str = ""
    #: how many times this (plan, dispatch) pair ran during the query
    applications: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "join_order": list(self.join_order),
            "dispatch": self.dispatch,
            "detail": self.detail,
            "applications": self.applications,
        }

    def __str__(self) -> str:
        order = " ⨝ ".join(self.join_order) if self.join_order else "(no body)"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{order} via {self.dispatch} ×{self.applications}{extra}  [{self.rule}]"


@dataclass
class StratumDecision:
    """One recursive stratum's executor choice (columnar batch vs kernel loop)."""

    #: stratum position in evaluation order (0-based)
    stratum: int
    #: the mutually recursive predicates evaluated together
    predicates: Tuple[str, ...]
    #: ``columnar`` (batch executor) or ``kernel-loop`` (per-plan dispatch)
    dispatch: str
    #: the executor's ``profit_score`` that drove the choice, when one was
    #: computed (``None`` without a batch template, or when a test forced it)
    score: Optional[float] = None
    #: why (``score>=threshold`` / ``score<threshold`` / ``no-batch-template``;
    #: ``forced`` / ``columnar-off`` under :func:`repro.testing.reference.batching`)
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "stratum": self.stratum,
            "predicates": list(self.predicates),
            "dispatch": self.dispatch,
            "score": self.score,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        score = f" score={self.score:.2f}" if self.score is not None else ""
        return (
            f"stratum {self.stratum} {{{', '.join(self.predicates)}}}: "
            f"{self.dispatch}{score} ({self.detail})"
        )


@dataclass
class IterationSample:
    """One fixpoint iteration: which stratum, delta size, wall-clock cost."""

    stratum: int
    iteration: int
    delta_tuples: int
    elapsed_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "stratum": self.stratum,
            "iteration": self.iteration,
            "delta_tuples": self.delta_tuples,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class QueryProfile:
    """The full EXPLAIN / EXPLAIN ANALYZE record of one query."""

    #: the query, as text (``t(1, Y)?``)
    query: str
    #: the per-query trace ID that names this profile
    trace_id: str
    #: the strategy the front door picked (``explain`` reports a prediction)
    strategy: str = "unspecified"
    #: ``ok`` (an answered query) | ``plan-only`` (``explain``)
    outcome: str = "ok"
    #: EpochCache outcome: ``hit`` | ``miss`` | ``none`` (no epoch cache ran)
    cache: str = "none"
    #: the epoch the query observed (``None`` outside the serving layer)
    epoch: Optional[int] = None
    #: time spent queued (reader pool / admission) before the query started
    queued_seconds: float = 0.0
    #: time spent answering (lookup or evaluation), excluding queueing
    execution_seconds: float = 0.0
    #: wall-clock start (``time.time()``), for correlating with span exports
    started_at: float = 0.0
    #: one line per optimizer pass (``Rewrite`` provenance summary)
    rewrites: List[str] = field(default_factory=list)
    #: per-rule compiled-plan shapes with their dispatch decisions
    plans: List[PlanProfile] = field(default_factory=list)
    #: per-recursive-stratum executor decisions (with profitability scores)
    strata: List[StratumDecision] = field(default_factory=list)
    #: per-fixpoint-iteration timings with delta sizes
    iterations: List[IterationSample] = field(default_factory=list)
    #: the evaluation's full stats (identical totals to the result's stats)
    stats: EvaluationStats = field(default_factory=EvaluationStats)
    #: auxiliary counters: plan_cache_hits/misses, kernels_built,
    #: strata_entered, iterations_sampled (+ dropped when capped)
    counters: Dict[str, int] = field(default_factory=dict)
    #: ``(rung, error class, message)`` per ladder rung that refused before ``strategy``
    fell_through: List[Tuple[str, str, str]] = field(default_factory=list)
    #: ``explain`` only: why the first rung applies, and the rungs to try after it
    reason: str = ""
    fallbacks: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable view (what ``/debug/queries`` serves)."""
        return {
            "query": self.query,
            "trace_id": self.trace_id,
            "strategy": self.strategy,
            "outcome": self.outcome,
            "cache": self.cache,
            "epoch": self.epoch,
            "queued_seconds": self.queued_seconds,
            "execution_seconds": self.execution_seconds,
            "started_at": self.started_at,
            "rewrites": list(self.rewrites),
            "plans": [plan.as_dict() for plan in self.plans],
            "strata": [decision.as_dict() for decision in self.strata],
            "iterations": [sample.as_dict() for sample in self.iterations],
            "stats": self.stats.as_dict(),
            "counters": dict(self.counters),
            "fell_through": [list(step) for step in self.fell_through],
            "reason": self.reason,
            "fallbacks": list(self.fallbacks),
        }

    def render(self) -> str:
        """The text EXPLAIN / EXPLAIN ANALYZE rendering, one section per part."""
        lines = [
            f"QUERY    {self.query}",
            f"TRACE    {self.trace_id}",
            f"STRATEGY {self.strategy}" + (f" — {self.reason}" if self.reason else ""),
            f"OUTCOME  {self.outcome}"
            + (f"  cache={self.cache}" if self.cache != "none" else "")
            + (f"  epoch={self.epoch}" if self.epoch is not None else ""),
        ]
        if self.outcome != "plan-only":
            lines.append(
                f"TIMING   queued={self.queued_seconds * 1000:.3f}ms "
                f"execution={self.execution_seconds * 1000:.3f}ms"
            )
        for rung, error, message in self.fell_through:
            lines.append(f"FELL THROUGH {rung}: {error}: {message}")
        if self.fallbacks:
            lines.append("FALLBACKS")
            lines.extend(f"  {fallback}" for fallback in self.fallbacks)
        if self.rewrites:
            lines.append("REWRITES")
            lines.extend(f"  {rewrite}" for rewrite in self.rewrites)
        if self.plans:
            lines.append("PLANS")
            lines.extend(f"  {plan}" for plan in self.plans)
        if self.strata:
            lines.append("STRATA")
            lines.extend(f"  {decision}" for decision in self.strata)
        if self.iterations:
            lines.append(f"ITERATIONS ({len(self.iterations)} sampled)")
            lines.extend(
                f"  stratum {sample.stratum} iter {sample.iteration}: "
                f"delta={sample.delta_tuples} "
                f"{sample.elapsed_seconds * 1000:.3f}ms"
                for sample in self.iterations
            )
        if self.outcome != "plan-only":
            lines.append(f"STATS    {self.stats}")
        if self.counters:
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(self.counters.items())
            )
            lines.append(f"COUNTERS {rendered}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return (
            f"QueryProfile({self.query} via {self.strategy}: {self.outcome}, "
            f"{len(self.plans)} plans, {len(self.iterations)} iterations)"
        )


def _describe_step(plan, index: int) -> str:
    """``p[probe 0,1]`` / ``p[scan]``; what the evaluator itself hands the join — a
    schema's selection and the round's carry, not stored relations — reads ``input p/arity[...]``,
    and the occurrence a delta variant forces to the front reads ``delta p[...]``."""
    step = plan.steps[index]
    access = f"probe {','.join(map(str, step.probe_columns))}" if step.probe_columns else "scan"
    if index < getattr(plan, "inputs", 0):
        return f"input {step.predicate}/{plan.rule.body[step.atom_index].arity}[{access}]"
    if getattr(plan, "first", None) is not None and step.atom_index == plan.first:
        return f"delta {step.predicate}[{access}]"
    return f"{step.predicate}[{access}]"


# ----------------------------------------------------------------------
# the recorder the engine hooks feed
# ----------------------------------------------------------------------
class ProfileRecorder:
    """The mutable sink armed on the thread-local channel during one query.

    The engine talks to it duck typed (``repro.engine`` never imports this
    module): :meth:`record_dispatch` from
    :meth:`~repro.engine.compile.CompiledRule.evaluate`/``join``,
    :meth:`record_stratum` / :meth:`record_group` / :meth:`record_iteration`
    from the semi-naive drivers, :meth:`record_plan_cache` from
    :class:`~repro.engine.compile.PlanCache`, :meth:`record_kernel_built`
    from the kernel code generator.  Lists are capped (``max_plans``,
    ``max_iterations``) so a pathological query cannot grow a profile without
    bound; everything dropped is counted.

    A recorder is used by the single thread evaluating the query — the
    engine is single-threaded per query — so it needs no lock.
    """

    __slots__ = (
        "query_text",
        "trace_id",
        "started_at",
        "max_plans",
        "max_iterations",
        "plans",
        "strata",
        "iterations",
        "plan_cache_hits",
        "plan_cache_misses",
        "kernels_built",
        "strata_entered",
        "iterations_dropped",
        "plans_dropped",
        "_dispatches",
    )

    def __init__(
        self,
        query_text: str,
        *,
        trace_id: Optional[str] = None,
        max_plans: int = 64,
        max_iterations: int = 512,
    ) -> None:
        self.query_text = query_text
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.started_at = time.time()
        self.max_plans = max_plans
        self.max_iterations = max_iterations
        self.plans: List[PlanProfile] = []
        self.strata: List[StratumDecision] = []
        self.iterations: List[IterationSample] = []
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.kernels_built = 0
        self.strata_entered = 0
        self.iterations_dropped = 0
        self.plans_dropped = 0
        #: (id(plan), dispatch) -> (PlanProfile, plan), for O(1) dedupe + counting;
        #: the plan is held so that a freed plan's id cannot be taken for a new plan's
        self._dispatches: Dict[Tuple[int, str], Tuple[PlanProfile, object]] = {}

    # -- engine hooks (duck typed; keep them cheap) ---------------------
    def record_dispatch(self, plan, dispatch: str, detail: str = "") -> None:
        """One compiled-plan application and the path that ran it."""
        key = (id(plan), dispatch)
        existing = self._dispatches.get(key)
        if existing is not None:
            existing[0].applications += 1
            return
        if len(self.plans) >= self.max_plans:
            self.plans_dropped += 1
            return
        entry = PlanProfile(
            rule=str(plan.rule),
            join_order=tuple(_describe_step(plan, index) for index in range(len(plan.steps))),
            dispatch=dispatch,
            detail=detail,
        )
        self._dispatches[key] = (entry, plan)
        self.plans.append(entry)

    def record_stratum(self, stratum: int, predicates) -> None:
        """Entry into one evaluation stratum (recursive or not)."""
        self.strata_entered += 1

    def record_group(
        self,
        stratum: int,
        predicates,
        dispatch: str,
        score: Optional[float] = None,
        detail: str = "",
    ) -> None:
        """One recursive stratum's executor decision (columnar vs kernel loop)."""
        self.strata.append(
            StratumDecision(stratum, tuple(predicates), dispatch, score, detail)
        )

    def record_iteration(
        self, stratum: int, iteration: int, delta_tuples: int, elapsed_seconds: float
    ) -> None:
        """One fixpoint iteration's delta size and wall-clock cost."""
        if len(self.iterations) >= self.max_iterations:
            self.iterations_dropped += 1
            return
        self.iterations.append(
            IterationSample(stratum, iteration, delta_tuples, elapsed_seconds)
        )

    def record_plan_cache(self, hit: bool) -> None:
        """One PlanCache probe (compiled-plan memoization hit or miss)."""
        if hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1

    def record_kernel_built(self, plan) -> None:
        """One generated kernel compiled (codegen happened during this query)."""
        self.kernels_built += 1

    # -- assembly -------------------------------------------------------
    def counters_dict(self) -> Dict[str, int]:
        counters = {
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "kernels_built": self.kernels_built,
            "strata_entered": self.strata_entered,
            "iterations_sampled": len(self.iterations),
        }
        if self.iterations_dropped:
            counters["iterations_dropped"] = self.iterations_dropped
        if self.plans_dropped:
            counters["plans_dropped"] = self.plans_dropped
        return counters

    def build(
        self,
        *,
        strategy: str,
        stats: Optional[EvaluationStats] = None,
        outcome: str = "ok",
        cache: str = "none",
        epoch: Optional[int] = None,
        queued_seconds: float = 0.0,
        execution_seconds: float = 0.0,
        provenance=None,
        fell_through=(),
    ) -> QueryProfile:
        """Assemble the finished :class:`QueryProfile`.

        ``provenance`` is an :class:`~repro.optimize.passes.OptimizationResult`
        (or ``None``); its ``rewrites`` become the profile's rewrite summary.
        """
        return QueryProfile(
            query=self.query_text,
            trace_id=self.trace_id,
            strategy=strategy,
            outcome=outcome,
            cache=cache,
            epoch=epoch,
            queued_seconds=queued_seconds,
            execution_seconds=execution_seconds,
            started_at=self.started_at,
            rewrites=[str(rewrite) for rewrite in getattr(provenance, "rewrites", ())],
            plans=list(self.plans),
            strata=list(self.strata),
            iterations=list(self.iterations),
            stats=stats if stats is not None else EvaluationStats(),
            counters=self.counters_dict(),
            fell_through=list(fell_through),
        )


# ----------------------------------------------------------------------
# the flight recorder: recent profiles
# ----------------------------------------------------------------------
class FlightRecorder:
    """A bounded ring of recent :class:`QueryProfile` records.

    The serving layer records every profile a ``profile=True`` query
    assembles.  ``/debug/queries`` serves :meth:`as_dict`.  All
    operations are O(1) under one lock.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("FlightRecorder needs room for at least one profile")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._profiles: "deque[QueryProfile]" = deque(maxlen=capacity)
        #: lifetime counter (the ring forgets; this does not)
        self.profiles_recorded = 0

    # -- the profile ring -----------------------------------------------
    def record(self, profile: QueryProfile) -> None:
        """Append one finished profile to the ring (old profiles fall off)."""
        with self._lock:
            self._profiles.append(profile)
            self.profiles_recorded += 1

    def profiles(self) -> List[QueryProfile]:
        """The retained profiles, oldest first."""
        with self._lock:
            return list(self._profiles)

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def as_dict(self) -> Dict[str, object]:
        """The ``/debug/queries`` payload: the recent profiles."""
        with self._lock:
            profiles = list(self._profiles)
            recorded = self.profiles_recorded
        return {
            "recent_profiles": [profile.as_dict() for profile in profiles],
            "profiles_recorded": recorded,
            "capacity": self.capacity,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def __str__(self) -> str:
        return f"FlightRecorder({len(self)}/{self.capacity} profiles)"


# ----------------------------------------------------------------------
# EXPLAIN — plan only, no execution
# ----------------------------------------------------------------------
def explain(program, query, database=None) -> QueryProfile:
    """Explain how :func:`repro.engine.query.answer` would evaluate ``query``.

    Renders the :class:`~repro.engine.query.QueryPlan` that ``answer`` executes
    (:func:`~repro.engine.query.plan_query`: the optimizer passes are analysis,
    not evaluation) **without touching a single stored tuple**: the strategy is
    the first rung's, the plans are the joins that rung would run with their
    dispatch, the remaining rungs are the ``fallbacks`` and the rungs
    the analysis already refused are ``fell_through``.  The plans are the
    rung's own — the memoized Figure-9 schema (``t.exit`` / ``t.init`` /
    ``t.forward`` / ``t.backward`` / ``t.answer``, each led by its ``input
    t.selection`` / ``t.carry``; ``carry_arity`` in the counters), the cached
    joins of the unfolded strings — and for a fixpoint rung (magic, semi-naive)
    :func:`~repro.engine.seminaive.fixpoint_plans` of the program it evaluates:
    per stratum the base rules, then one ``delta p[...]``-led variant per
    occurrence of a recursive predicate.

    ``database`` is optional.  It orders joins by size, and each plan resolves
    its body relations against it — plus what the rung derives or seeds on the
    way — with the :meth:`~repro.engine.compile.CompiledRule.resolve` call the
    run makes, so a body relation the run will find missing is named in the
    plan's detail, as EXPLAIN ANALYZE names it.

    The returned :class:`QueryProfile` has ``outcome="plan-only"``, empty
    stats/iterations, and the strategy ``answer`` reports — unless an
    evaluation-time failure (e.g. the counting rung refusing cyclic data)
    makes ``answer`` fall through mid-flight, which no plan-only
    analysis can see.
    """
    from ..engine import kernels
    from ..engine.compile import ABSENT
    from ..engine.query import as_selection_query, plan_query

    selection = as_selection_query(program, query)
    plan = plan_query(program, selection)
    chosen, *fallbacks = plan.rungs
    relations = {r.name: r for r in database.relations()} if database is not None else None
    recorder = ProfileRecorder(str(selection))
    compiled_plans = chosen.plans(selection, relations)
    if relations is not None:
        # a relation the rung derives is there by the time its readers run
        # (any relation stands in for it: ``resolve`` only asks whether one is there)
        for compiled in compiled_plans:
            relations.setdefault(compiled.rule.head.predicate, ABSENT)
    dispatch = kernels.EXECUTOR.dispatch
    for compiled in compiled_plans:
        missing = compiled.resolve(relations)[1] if relations is not None else None
        recorder.record_dispatch(compiled, dispatch, compiled.dispatch_detail(missing))
    profile = recorder.build(
        strategy=chosen.strategy,
        outcome="plan-only",
        provenance=plan.provenance,
        fell_through=plan.fell_through,
    )
    profile.reason = chosen.reason
    profile.fallbacks = [f"{rung.strategy}: {rung.reason}" for rung in fallbacks]
    if chosen.schema is not None:
        profile.counters["carry_arity"] = chosen.schema.carry_arity
    return profile
