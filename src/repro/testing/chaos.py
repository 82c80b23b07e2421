"""Chaos differential testing: graceful degradation under injected faults.

The robustness layer's tier-1 foothold.  Each seeded case extends an
update-sequence case (:mod:`repro.testing.updates`) with a **fault
schedule**: a :class:`~repro.faults.FaultPlan` that makes the disk fail,
tear a frame, stall, or refuse fsync at seeded ordinals of the injection
sites wired into the durable service (``wal.append``, ``wal.fsync``,
``snapshot.write``, ``store.compact``, ``service.flush``).  A writer drives
the mutation script through the service — retrying each step until it is
acknowledged, exactly as a robust client would — while reader threads issue
seeded queries (some with deliberately impossible ``timeout=`` deadlines)
and barriers punctuate the stream.

Checked invariants, per case:

* **no acknowledged write is lost** — every step retries until acked, the
  final state matches the sequential shadow, and a full close/reopen
  recovery reproduces it tuple-for-tuple;
* **every answered query matches its epoch** — tuple-identical to
  from-scratch semi-naive evaluation over the observed snapshot's EDB
  (faults must never surface a torn or in-between state to readers);
* **the service heals** — after the fault window the health machine must
  return to ``HEALTHY`` within a bounded wait, with no unlogged backlog
  left behind, verified both on the object and through the *exported*
  ``repro_service_health_state`` gauge;
* **failures are crisp** — queries with impossible deadlines raise
  :class:`~repro.datalog.errors.QueryTimeout`; refused writes raise
  typed, retryable errors; nothing hangs.

Determinism: the fault schedule is plain data derived from the seed
(``ChaosCase.schedule``), so a failing seed replays exactly.
"""

from __future__ import annotations

import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..datalog.database import Database
from ..datalog.errors import QueryTimeout
from ..datalog.relation import Relation, Row
from ..engine.query import SelectionQuery
from ..engine.seminaive import seminaive_evaluate
from ..faults import FaultAction, FaultPlan, inject
from ..obs import MetricsRegistry
from ..service import (
    HEALTHY,
    DatalogService,
    FlushError,
    FlushPolicy,
    RetryPolicy,
    ServiceDegraded,
    ServiceOverloaded,
    ServiceResult,
)
from ..storage import StorageConfig
from .concurrent import _expected_answers, _query_pool, _rebuild_database
from .recovery import EdbState, _edb_state
from .updates import UpdateStep, generate_update_sequence

#: one scheduled fault as plain, comparable data: ``(site, ordinal, kind)``
#: with kind in :data:`FAULT_KINDS` — the serializable form of a FaultPlan
FaultSpec = Tuple[str, int, str]

#: the action vocabulary chaos schedules draw from, per site
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "wal.append": ("enospc", "eio", "torn", "delay"),
    "wal.fsync": ("eio",),
    "snapshot.write": ("eio",),
    "store.compact": ("enospc",),
    "service.flush": ("eio", "delay"),
}

#: how long one verdict may take before the harness calls it a hang
_STEP_DEADLINE_SECONDS = 30.0
_HEAL_DEADLINE_SECONDS = 20.0


def _make_action(kind: str) -> FaultAction:
    if kind == "enospc":
        return FaultAction.enospc()
    if kind == "eio":
        return FaultAction.eio()
    if kind == "torn":
        return FaultAction.torn()
    if kind == "delay":
        return FaultAction.delay(0.002)
    raise ValueError(f"unknown chaos fault kind {kind!r}")


@dataclass(frozen=True)
class ChaosCase:
    """One seeded fault schedule over an update script."""

    seed: int
    base: "object"  # UpdateSequenceCase (kept loose to avoid a cycle in docs)
    #: the effective mutation steps (each advances the epoch by one)
    steps: Tuple[UpdateStep, ...]
    #: EDB state per epoch; ``expected[k]`` is the state after step ``k``
    expected: Tuple[EdbState, ...]
    #: the fault schedule, as plain data (see :func:`build_plan`)
    schedule: Tuple[FaultSpec, ...]
    #: step indexes the writer barriers behind
    barrier_after: Tuple[int, ...]
    #: WAL records between compactions
    snapshot_interval: int
    readers: int
    queries_per_reader: int

    @property
    def name(self) -> str:
        sites = sorted({site for site, _ordinal, _kind in self.schedule})
        return (
            f"chaos/{self.base.base.family}[seed={self.seed}] "
            f"faults={','.join(sites) or 'none'} interval={self.snapshot_interval}"
        )

    def build_plan(self) -> FaultPlan:
        """The executable :class:`FaultPlan` for this case's schedule."""
        plan = FaultPlan()
        for site, ordinal, kind in self.schedule:
            plan.at(site, ordinal, _make_action(kind))
        return plan


@dataclass
class ChaosReport:
    """Outcome of one chaos schedule."""

    case: ChaosCase
    mismatches: List[str] = field(default_factory=list)
    #: individually verified query answers
    queries_checked: int = 0
    #: queries that (correctly) raised QueryTimeout on impossible deadlines
    timeouts_observed: int = 0
    #: writer retries needed across the whole script
    writer_retries: int = 0
    #: faults that actually fired, from the plan's record
    faults_fired: Tuple[Tuple[str, int, str], ...] = ()
    final_health: str = ""
    recovered_epoch: int = -1

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return (
            f"{self.case.name}: {self.queries_checked} answers checked, "
            f"{len(self.faults_fired)} faults fired, "
            f"{self.writer_retries} writer retries, "
            f"health={self.final_health}: {status}"
        )


def generate_chaos_case(seed: int) -> ChaosCase:
    """Deterministically derive one fault schedule from ``seed``.

    The base script and its per-epoch shadow states come from the same
    generators the recovery family uses; the fault schedule draws one or two
    contiguous *windows* of consecutive ordinals at a seeded site, so a run
    exercises both a single transient blip and a window long enough to
    exhaust the append retry budget and force a DEGRADED round-trip.
    """
    sequence = generate_update_sequence(seed)
    rng = random.Random(0xCA05 ^ (5_000_011 * seed))
    shadow = sequence.base.database.copy()
    effective: List[UpdateStep] = []
    expected: List[EdbState] = [_edb_state(shadow)]
    for step in sequence.steps:
        if step.op == "insert":
            changed = shadow.insert_facts(step.relation, list(step.rows))
        else:
            changed = shadow.remove_facts(step.relation, list(step.rows))
        if changed:
            effective.append(step)
            expected.append(_edb_state(shadow))

    sites = sorted(FAULT_KINDS)
    schedule: List[FaultSpec] = []
    appends = max(1, len(effective))
    for _window in range(rng.choice((1, 1, 2))):
        site = rng.choice(sites)
        kind = rng.choice(FAULT_KINDS[site])
        start = rng.randrange(1, appends + 1)
        length = rng.randrange(1, 5)
        for ordinal in range(start, start + length):
            schedule.append((site, ordinal, kind))
    barrier_after = tuple(
        index for index in range(len(effective)) if rng.random() < 0.2
    )
    return ChaosCase(
        seed=seed,
        base=sequence,
        steps=tuple(effective),
        expected=tuple(expected),
        schedule=tuple(sorted(set(schedule))),
        barrier_after=barrier_after,
        snapshot_interval=rng.choice((1, 2, 3, 10_000)),
        readers=rng.randrange(1, 3),
        queries_per_reader=rng.randrange(4, 9),
    )


def generate_chaos_cases(count: int, base_seed: int = 0) -> List[ChaosCase]:
    """``count`` deterministic chaos schedules with consecutive seeds."""
    return [generate_chaos_case(base_seed + offset) for offset in range(count)]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
#: TimeoutError covers a ticket.wait() that outlived its slice under an
#: injected delay — resubmitting is safe (set semantics make replays no-ops)
_RETRYABLE_WRITE_ERRORS = (FlushError, ServiceDegraded, ServiceOverloaded, TimeoutError)


def _acked_write(
    service: DatalogService, step: UpdateStep, report: ChaosReport
) -> bool:
    """Apply one step, retrying typed transient refusals until acknowledged."""
    deadline = time.monotonic() + _STEP_DEADLINE_SECONDS
    while True:
        try:
            if step.op == "insert":
                service.insert(step.relation, list(step.rows), wait=True, timeout=5.0)
            else:
                service.delete(step.relation, list(step.rows), wait=True, timeout=5.0)
            return True
        except _RETRYABLE_WRITE_ERRORS as exc:
            report.writer_retries += 1
            if time.monotonic() >= deadline:
                report.mismatches.append(
                    f"write {step} not acknowledged within "
                    f"{_STEP_DEADLINE_SECONDS}s; last error: {exc}"
                )
                return False
            time.sleep(0.002)


def _acked_barrier(service: DatalogService, report: ChaosReport) -> None:
    deadline = time.monotonic() + _STEP_DEADLINE_SECONDS
    while True:
        try:
            service.barrier(timeout=5.0)
            return
        except _RETRYABLE_WRITE_ERRORS as exc:
            report.writer_retries += 1
            if time.monotonic() >= deadline:
                report.mismatches.append(f"barrier never completed: {exc}")
                return
            time.sleep(0.002)


def _reader_loop(
    case: ChaosCase,
    service: DatalogService,
    index: int,
    pool: List[SelectionQuery],
    out: List[ServiceResult],
    errors: List[str],
    timeouts: List[int],
    stop: threading.Event,
) -> None:
    rng = random.Random(0xFA ^ (6_000_029 * case.seed) ^ (9_001 * index))
    served = 0
    try:
        while served < case.queries_per_reader and not stop.is_set():
            query = rng.choice(pool)
            if rng.random() < 0.15:
                # an impossible deadline must fail crisply, never hang
                try:
                    service.query(query, timeout=0.0)
                except QueryTimeout:
                    timeouts.append(1)
                else:
                    errors.append(
                        f"reader {index}: query with timeout=0 did not raise QueryTimeout"
                    )
                continue
            if rng.random() < 0.4:
                out.append(service.submit(query, timeout=10.0).result(timeout=30))
            else:
                out.append(service.query(query, timeout=10.0))
            served += 1
    except QueryTimeout:
        # a generous deadline can still trip under injected delays; reads
        # failing *crisply* is the contract — just stop this reader
        timeouts.append(1)
    except BaseException as exc:  # noqa: BLE001 - surfaced as a mismatch
        errors.append(f"reader {index}: {type(exc).__name__}: {exc}")


def _await_healthy(service: DatalogService, report: ChaosReport) -> None:
    deadline = time.monotonic() + _HEAL_DEADLINE_SECONDS
    while time.monotonic() < deadline:
        if service.health == HEALTHY and not service._unlogged:
            return
        time.sleep(0.005)
    report.mismatches.append(
        f"service did not return to HEALTHY within {_HEAL_DEADLINE_SECONDS}s "
        f"(health={service.health}, storage_failed={service.storage_failed!r}, "
        f"unlogged={len(service._unlogged)})"
    )


def _exported_health_state(registry: MetricsRegistry) -> Optional[float]:
    """The ``repro_service_health_state`` gauge value from a rendered scrape."""
    match = re.search(
        r"^repro_service_health_state (\S+)$", registry.render(), re.MULTILINE
    )
    return float(match.group(1)) if match else None


def _check_epoch_state(
    service: DatalogService, case: ChaosCase, label: str, report: ChaosReport
) -> None:
    """The published snapshot must equal the shadow at the final epoch."""
    expected = case.expected[len(case.steps)]
    snapshot = service.snapshot()
    for name in sorted(set(expected) | set(snapshot.edb)):
        want = expected.get(name, frozenset())
        got = snapshot.edb[name].rows() if name in snapshot.edb else set()
        if want != got:
            report.mismatches.append(
                f"{label}: EDB {name}: {len(got)} vs expected {len(want)} tuples"
            )
    reference = seminaive_evaluate(
        case.base.base.program, _rebuild_database(snapshot.edb)
    )
    for predicate in sorted(snapshot.views):
        want = reference[predicate].rows() if predicate in reference else set()
        got = snapshot.views[predicate].rows()
        if want != got:
            report.mismatches.append(
                f"{label}: view {predicate}: {len(got)} vs recomputed {len(want)} tuples"
            )


def run_chaos_case(case: ChaosCase, directory: Path) -> ChaosReport:
    """Inject the schedule, drive the script, verify every invariant.

    ``directory`` must be empty (one case per scratch directory).
    """
    report = ChaosReport(case)
    registry = MetricsRegistry()
    service = DatalogService.open(
        Path(directory),
        str(case.base.base.program),
        database=case.base.base.database.copy(),
        storage_config=StorageConfig(
            # the wal.fsync site only exists on the fsync path
            fsync=any(site == "wal.fsync" for site, _o, _k in case.schedule),
            snapshot_interval=case.snapshot_interval,
        ),
        flush_policy=FlushPolicy(
            max_batch=1, max_delay_seconds=0.0, max_pending=64
        ),
        retry=RetryPolicy(
            max_attempts=3, base_delay_seconds=0.0005, max_delay_seconds=0.005
        ),
        metrics=registry,
    )
    plan = case.build_plan()
    barrier_after = set(case.barrier_after)
    try:
        pool = _query_pool_for(case, service)
        errors: List[str] = []
        timeouts: List[int] = []
        stop = threading.Event()
        observed: List[List[ServiceResult]] = [[] for _ in range(case.readers)]
        threads = [
            threading.Thread(
                target=_reader_loop,
                args=(case, service, index, pool, observed[index], errors, timeouts, stop),
                name=f"chaos-reader-{index}",
            )
            for index in range(case.readers)
        ]
        # the plan activates *after* construction: genesis snapshot + first
        # segment are sound, exactly like a disk that degrades in service
        with inject(plan):
            for thread in threads:
                thread.start()
            for index, step in enumerate(case.steps):
                if not _acked_write(service, step, report):
                    break
                if index in barrier_after:
                    _acked_barrier(service, report)
            _await_healthy(service, report)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            if any(thread.is_alive() for thread in threads):
                report.mismatches.append("a reader thread did not finish within 60s")
                return report
        report.mismatches.extend(errors)
        report.timeouts_observed = len(timeouts)
        report.faults_fired = tuple(plan.fired)
        report.final_health = service.health

        # the *exported* health gauge must agree: degraded != dead, and
        # healed means healed on the scrape path operators actually watch
        exported = _exported_health_state(registry)
        if exported is None:
            report.mismatches.append("repro_service_health_state missing from scrape")
        elif service.health == HEALTHY and exported != 0.0:
            report.mismatches.append(
                f"exported health gauge says {exported}, service says {service.health}"
            )

        # no acknowledged write lost, torn state never published: the final
        # barrier + snapshot must equal the sequential shadow exactly
        _acked_barrier(service, report)
        if service.epoch != len(case.steps):
            report.mismatches.append(
                f"final epoch {service.epoch}, expected {len(case.steps)} "
                "(every effective step was acknowledged)"
            )
        _check_epoch_state(service, case, "final state", report)

        # every answered query must match recomputation over its epoch
        program = case.base.base.program
        references: Dict[int, Tuple[Dict[str, Relation], Database]] = {}
        for results in observed:
            last_epoch = -1
            for result in results:
                if result.epoch < last_epoch:
                    report.mismatches.append(
                        f"epochs moved backwards for one reader: "
                        f"{result.epoch} after {last_epoch}"
                    )
                last_epoch = max(last_epoch, result.epoch)
                cached = references.get(result.epoch)
                if cached is None:
                    database = _rebuild_database(result.snapshot.edb)
                    cached = (seminaive_evaluate(program, database), database)
                    references[result.epoch] = cached
                reference, database = cached
                expected = _expected_answers(reference, database, result.result.query)
                if result.answers != expected:
                    report.mismatches.append(
                        f"{result.result.query} @epoch {result.epoch}: "
                        f"{len(result.answers)} answers vs {len(expected)} recomputed"
                    )
                report.queries_checked += 1
    finally:
        service.close()

    # post-fault recovery must reproduce the final state from disk alone
    recovered = DatalogService.open(
        Path(directory), storage_config=StorageConfig(fsync=False)
    )
    try:
        report.recovered_epoch = recovered.epoch
        if recovered.epoch != len(case.steps):
            report.mismatches.append(
                f"recovery landed on epoch {recovered.epoch}, expected "
                f"{len(case.steps)} — an acknowledged write was lost"
            )
        else:
            _check_epoch_state(recovered, case, "post-recovery", report)
    finally:
        recovered.close()
    return report


def _query_pool_for(case: ChaosCase, service: DatalogService) -> List[SelectionQuery]:
    """The concurrent harness's seeded pool, keyed off this case's base."""
    from .concurrent import ConcurrentCase

    proxy = ConcurrentCase(
        seed=case.seed,
        base=case.base,
        readers=case.readers,
        queries_per_reader=case.queries_per_reader,
        barrier_after=case.barrier_after,
        policy=service.queue.policy,
    )
    return _query_pool(proxy, service)
