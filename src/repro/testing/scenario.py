"""Stateful differential testing: one scenario driver, the naive oracle as truth.

A :class:`Scenario` is a base differential case (program, database, query), an
op script of randomized EDB insertions and deletions, and a schedule of up to
three independent parts:

* a **thread schedule** — reader threads issuing seeded queries beside the
  writer, a barrier after seeded steps, and the write queue's flush policy;
* a **crash point** — the WAL append a durable store dies at: before it (the
  batch never reaches disk), after it (durable, but never published), or torn
  (the frame is cut mid-write, so it replays as if never written);
* a **fault plan** — seeded windows of disk and flush faults at the injection
  sites of the durable service (:mod:`repro.faults`).

:func:`generate_scenario` sets each family's schedule: ``updates`` has none
and replays the script through a :class:`~repro.incremental.session.Session`,
``concurrent`` has a thread schedule over an in-memory service, ``crash`` has
a crash point over a durable one, and ``chaos`` has a thread schedule and a
fault plan over a durable one.

:func:`run_scenario` drives any of them.  Its truth is
:func:`~repro.testing.oracle.fixpoint` over the EDB of each acknowledged or
observed epoch, computed once per epoch; the oracle shares no strata, plans or
delta loop with the views it checks.  Every checked state must hold the
shadow's EDB for its epoch (the script replayed on a plain
:class:`~repro.datalog.database.Database`), views equal to the oracle's model,
and a routed query answering as the model does.  Besides, per family:

* ``updates`` checks the initial state and the state after every step, and
  holds the final views to a recompute on the reference step machine;
* a thread schedule checks every answer against its observed epoch, epochs
  monotone per reader, the final state after a barrier, and the final answer
  against a single-threaded ``Session`` fed the same script;
* a crash point checks that the crash fires, that the crashed batch stays
  unpublished, that recovery lands on the adjacent epoch, that replaying the
  WAL twice changes nothing, that the recovered service finishes the script,
  and that a second recovery reproduces the final state;
* a fault plan retries each write until acknowledged, checks that reads with
  ``timeout=0`` raise :class:`~repro.datalog.errors.QueryTimeout`, that the
  service heals (on the object and on the exported health gauge), and that a
  recovery after the faults reproduces the final state.

Any failure names its seed; the script and schedule are plain data derived
from it, so a failing seed replays exactly.
"""

from __future__ import annotations

import random
import re
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..datalog.database import Database
from ..datalog.errors import QueryTimeout
from ..datalog.relation import Relation, Row
from ..engine.query import SelectionQuery
from ..engine.seminaive import seminaive_evaluate
from ..faults import FaultAction, FaultPlan, inject
from ..incremental.session import Session
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
from ..service.service import ServiceStats
from ..service.snapshot import ServiceSnapshot, take_snapshot
from ..storage import DurableStore, StorageConfig, segment_files
from .generate import DifferentialCase, generate_case
from .oracle import fixpoint
from .reference import step_machine

#: the families :func:`generate_scenario` sets a schedule for
KINDS = ("updates", "concurrent", "crash", "chaos")

#: EDB state at one epoch: relation name → its exact tuple set
EdbState = Dict[str, FrozenSet[Row]]

#: one scheduled fault as plain, comparable data: ``(site, ordinal, kind)``
FaultSpec = Tuple[str, int, str]

#: the fault kinds chaos schedules draw from, per injection site
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "wal.append": ("enospc", "eio", "torn", "delay"),
    "wal.fsync": ("eio",),
    "snapshot.write": ("eio",),
    "store.compact": ("enospc",),
    "service.flush": ("eio", "delay"),
}

_FAULT_ACTIONS = {
    "enospc": FaultAction.enospc,
    "eio": FaultAction.eio,
    "torn": FaultAction.torn,
    "delay": lambda: FaultAction.delay(0.002),
}

#: how long one write may take to be acknowledged before the run calls it a hang
_STEP_DEADLINE_SECONDS = 30.0
_HEAL_DEADLINE_SECONDS = 20.0
_THREAD_DEADLINE_SECONDS = 60.0

#: refusals a writer under a fault plan retries: TimeoutError covers a wait
#: that outlived its slice under an injected delay, and resubmitting is safe
#: (set semantics make a replayed write a no-op)
_RETRYABLE = (FlushError, ServiceDegraded, ServiceOverloaded, TimeoutError)


@dataclass(frozen=True)
class UpdateStep:
    """One scripted mutation: insert or delete ``rows`` in relation ``relation``."""

    op: str  # "insert" | "delete"
    relation: str
    rows: Tuple[Row, ...]

    def __str__(self) -> str:
        return f"{self.op} {self.relation} {list(self.rows)}"


def _edb_state(database: Database) -> EdbState:
    return {relation.name: frozenset(relation.rows()) for relation in database.relations()}


def _effective(database: Database, steps) -> Tuple[Tuple[UpdateStep, ...], Tuple[EdbState, ...]]:
    """The steps that change a copy of ``database``, and its EDB state per epoch.

    A step that changes nothing runs no maintenance round, so it publishes no
    epoch and never reaches the WAL; ``states[k]`` is the state after ``k``
    effective steps.
    """
    shadow = database.copy()
    effective: List[UpdateStep] = []
    states = [_edb_state(shadow)]
    for step in steps:
        apply = shadow.insert_facts if step.op == "insert" else shadow.remove_facts
        if apply(step.relation, list(step.rows)):
            effective.append(step)
            states.append(_edb_state(shadow))
    return tuple(effective), tuple(states)


@dataclass(frozen=True)
class Scenario:
    """A base case, the op script a writer drives, and its schedule.

    Each schedule part is absent while its fields keep their defaults.  The
    thread schedule: ``readers`` threads of ``queries_per_reader`` queries, a
    barrier after each step index in ``barrier_after``, and the write queue's
    ``policy`` (``None``: no service, the script goes through a ``Session``).
    The crash point: the store dies at 1-based WAL append ``crash_append``,
    ``crash_kind`` ``"before"``, ``"after"`` or ``"torn"``.  The fault plan:
    ``schedule``.  A ``snapshot_interval`` (WAL records between compactions)
    makes the service durable; its ``steps`` are then all effective, one
    batch and one epoch each.
    """

    seed: int
    base: DifferentialCase
    steps: Tuple[UpdateStep, ...]
    readers: int = 0
    queries_per_reader: int = 0
    barrier_after: Tuple[int, ...] = ()
    policy: Optional[FlushPolicy] = None
    crash_append: int = 0
    crash_kind: str = ""
    snapshot_interval: int = 0
    schedule: Tuple[FaultSpec, ...] = ()

    @property
    def kind(self) -> str:
        if self.schedule:
            return "chaos"
        if self.crash_kind:
            return "crash"
        return "updates" if self.policy is None else "concurrent"

    @property
    def name(self) -> str:
        name = f"{self.kind}/{self.base.family}[seed={self.seed}]"
        if self.crash_kind:
            name += f" crash {self.crash_kind} append#{self.crash_append}"
        if self.schedule:
            name += f" faults={','.join(sorted({site for site, _ordinal, _kind in self.schedule}))}"
        if self.snapshot_interval:
            name += f" interval={self.snapshot_interval}"
        return name

    @cached_property
    def expected(self) -> Tuple[EdbState, ...]:
        """The EDB state per epoch; ``expected[k]`` is the state after ``k`` effective steps."""
        return _effective(self.base.database, self.steps)[1]

    @property
    def expected_epoch(self) -> int:
        """The epoch recovery from the crash must land on.

        A torn append fails its checksum, so it recovers like one that never
        happened; only a complete append (``"after"``) is durable.
        """
        return self.crash_append if self.crash_kind == "after" else self.crash_append - 1


@dataclass
class ScenarioReport:
    """Outcome of one scenario run."""

    scenario: Scenario
    mismatches: List[str] = field(default_factory=list)
    #: the view's maintenance strategy
    strategy: str = "unregistered"
    #: checked states and WAL replays
    checks: int = 0
    #: individually verified query answers, and the distinct epochs they saw
    queries_checked: int = 0
    epochs_observed: int = 0
    #: queries that raised QueryTimeout, and writes or barriers retried
    timeouts_observed: int = 0
    writer_retries: int = 0
    #: faults that fired, from the plan's record
    faults_fired: Tuple[FaultSpec, ...] = ()
    final_health: str = ""
    #: the epoch the first recovery landed on
    recovered_epoch: int = -1
    #: the service's counters as the run ended
    stats: Optional[ServiceStats] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return (
            f"{self.scenario.name} ({self.strategy}, {len(self.scenario.steps)} steps): "
            f"{self.checks} checks, {self.queries_checked} answers over {self.epochs_observed} "
            f"epochs, {len(self.faults_fired)} faults fired, {self.writer_retries} retries, "
            f"recovered@{self.recovered_epoch}: {status}"
        )


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _script(base: DifferentialCase, seed: int) -> Tuple[UpdateStep, ...]:
    """The seeded op script: deletions drawn from live rows, insertions mixing
    domain values with fresh ones, over a shadow copy of the database."""
    rng = random.Random(1_000_003 * seed + 0x5EED)
    shadow = base.database.copy()
    names = sorted(name for name in base.program.edb_predicates() if shadow.has_relation(name))
    steps: List[UpdateStep] = []
    fresh_counter = 0
    for _ in range(rng.randrange(6, 12)):
        name = rng.choice(names)
        relation = shadow.relation(name)
        existing = sorted(relation.rows(), key=repr)
        if existing and rng.random() < 0.45:
            rows = rng.sample(existing, rng.randrange(1, min(3, len(existing)) + 1))
            for row in rows:
                shadow.remove_fact(name, row)
            steps.append(UpdateStep("delete", name, tuple(dict.fromkeys(rows))))
            continue
        domain = sorted(shadow.active_domain(), key=repr) or [0]
        rows = []
        for _ in range(rng.randrange(1, 4)):
            row = []
            for _column in range(relation.arity):
                if rng.random() < 0.15:
                    fresh_counter += 1
                    row.append(f"u{fresh_counter}")
                else:
                    row.append(rng.choice(domain))
            rows.append(tuple(row))
        for row in rows:
            shadow.add_fact(name, row)
        steps.append(UpdateStep("insert", name, tuple(dict.fromkeys(rows))))
    return tuple(steps)


def generate_scenario(kind: str, seed: int) -> Scenario:
    """Deterministically generate the ``kind`` scenario (one of :data:`KINDS`) of ``seed``.

    Every family shares the base case and script of ``seed``; the durable
    families drive only its effective steps, so a crash or fault ordinal counts
    WAL appends.
    """
    base = generate_case(seed)
    steps = _script(base, seed)
    if kind == "updates":
        return Scenario(seed, base, steps)
    if kind == "concurrent":
        rng = random.Random(0xC0 ^ (2_000_003 * seed))
        return Scenario(
            seed,
            base,
            steps,
            barrier_after=tuple(index for index in range(len(steps)) if rng.random() < 0.25),
            readers=rng.randrange(2, 5),
            queries_per_reader=rng.randrange(6, 12),
            policy=FlushPolicy(
                max_batch=rng.randrange(2, 7), max_delay_seconds=rng.choice((0.001, 0.002, 0.005))
            ),
        )
    steps = _effective(base.database, steps)[0]
    if kind == "crash":
        rng = random.Random(7_368_787 * seed + 0xC4A54)
        return Scenario(
            seed,
            base,
            steps,
            policy=FlushPolicy(max_batch=1, max_delay_seconds=0.0),
            crash_append=rng.randrange(1, len(steps) + 1) if steps else 1,
            crash_kind=rng.choice(("before", "after", "torn")),
            snapshot_interval=rng.choice((1, 2, 3, 5, 10_000)),
        )
    if kind != "chaos":
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    # one or two windows of consecutive ordinals at a seeded site: a single
    # transient blip, or a window long enough to exhaust the append retry
    # budget and force a DEGRADED round-trip
    rng = random.Random(0xCA05 ^ (5_000_011 * seed))
    schedule: List[FaultSpec] = []
    for _window in range(rng.choice((1, 1, 2))):
        site = rng.choice(sorted(FAULT_KINDS))
        fault = rng.choice(FAULT_KINDS[site])
        start = rng.randrange(1, max(1, len(steps)) + 1)
        schedule.extend((site, ordinal, fault) for ordinal in range(start, start + rng.randrange(1, 5)))
    return Scenario(
        seed,
        base,
        steps,
        barrier_after=tuple(index for index in range(len(steps)) if rng.random() < 0.2),
        policy=FlushPolicy(max_batch=1, max_delay_seconds=0.0, max_pending=64),
        snapshot_interval=rng.choice((1, 2, 3, 10_000)),
        readers=rng.randrange(1, 3),
        queries_per_reader=rng.randrange(4, 9),
        schedule=tuple(sorted(set(schedule))),
    )


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _query_pool(scenario: Scenario, snapshot: ServiceSnapshot) -> List[SelectionQuery]:
    """The seeded queries readers draw from: the case's query, whole-view
    scans, and whole and selected EDB lookups."""
    base = scenario.base
    rng = random.Random(0xD1 ^ (3_000_017 * scenario.seed))
    pool = [base.query]
    pool.extend(SelectionQuery.of(name, snapshot.views[name].arity) for name in sorted(snapshot.views))
    domain = sorted(base.database.active_domain(), key=repr)
    for name in sorted(base.program.edb_predicates()):
        if not base.database.has_relation(name):
            continue
        arity = base.database.relation(name).arity
        pool.append(SelectionQuery.of(name, arity))
        if domain:
            pool.append(SelectionQuery.of(name, arity, {rng.randrange(arity): rng.choice(domain)}))
    return pool


def _reader(
    scenario: Scenario,
    service: DatalogService,
    index: int,
    pool: List[SelectionQuery],
    out: List[ServiceResult],
    errors: List[str],
    timeouts: List[int],
) -> None:
    """Issue ``queries_per_reader`` seeded queries, half-and-half sync and pooled.

    Under a fault plan every query carries a deadline, and some an impossible
    one, which must raise :class:`QueryTimeout` rather than hang.
    """
    faulty = bool(scenario.schedule)
    if faulty:
        rng = random.Random(0xFA ^ (6_000_029 * scenario.seed) ^ (9_001 * index))
    else:
        rng = random.Random(0xEE ^ (4_000_037 * scenario.seed) ^ (7_001 * index))
    deadline = 10.0 if faulty else None
    served = 0
    try:
        while served < scenario.queries_per_reader:
            query = rng.choice(pool)
            if faulty and rng.random() < 0.15:
                try:
                    service.query(query, timeout=0.0)
                except QueryTimeout:
                    timeouts.append(1)
                else:
                    errors.append(f"reader {index}: query with timeout=0 did not raise QueryTimeout")
                continue
            if rng.random() < 0.4:
                out.append(service.submit(query, timeout=deadline).result(timeout=30))
            else:
                out.append(service.query(query, timeout=deadline))
            served += 1
    except QueryTimeout:
        # a generous deadline can still trip under injected delays; failing
        # crisply is the contract, so this reader just stops
        timeouts.append(1)
    except Exception as exc:  # noqa: BLE001 - surfaced as a mismatch
        errors.append(f"reader {index}: {type(exc).__name__}: {exc}")


def _exported_health_state(registry: MetricsRegistry) -> Optional[float]:
    """The ``repro_service_health_state`` gauge value from a rendered scrape."""
    match = re.search(r"^repro_service_health_state (\S+)$", registry.render(), re.MULTILINE)
    return float(match.group(1)) if match else None


class _Run:
    """One scenario's run: its report and its per-epoch truth."""

    def __init__(self, scenario: Scenario, directory: Optional[Path]) -> None:
        self.scenario = scenario
        self.directory = directory
        self.report = ScenarioReport(scenario)
        self.registry = MetricsRegistry()
        #: the oracle's model per epoch: every predicate's rows, EDB included
        self.truth: Dict[int, Dict[str, Set[Tuple]]] = {}

    def fail(self, message: str) -> None:
        self.report.mismatches.append(message)

    def model(self, epoch: int, edb: Mapping[str, Relation]) -> Dict[str, Set[Tuple]]:
        model = self.truth.get(epoch)
        if model is None:
            facts = {name: relation.rows() for name, relation in edb.items()}
            model = self.truth[epoch] = fixpoint(self.scenario.base.program, facts)
        return model

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check_state(self, label: str, target, step_epoch: Optional[int] = None) -> None:
        """``target``'s EDB must be the shadow's at ``step_epoch`` (default: its
        own epoch), its views and routed query the oracle's for its epoch."""
        self.report.checks += 1
        snapshot = take_snapshot(target) if isinstance(target, Session) else target.snapshot()
        states = self.scenario.expected
        index = snapshot.epoch if step_epoch is None else step_epoch
        want_edb = states[index] if 0 <= index < len(states) else {}
        for name in sorted(set(want_edb) | set(snapshot.edb)):
            want = want_edb.get(name, frozenset())
            got = snapshot.edb[name].rows() if name in snapshot.edb else set()
            if want != got:
                self.fail(
                    f"{label}: EDB {name}: {len(got)} vs expected {len(want)} tuples at epoch "
                    f"{index} (missing sample {sorted(want - got, key=repr)[:5]}, "
                    f"extra sample {sorted(got - want, key=repr)[:5]})"
                )
        model = self.model(snapshot.epoch, snapshot.edb)
        program = self.scenario.base.program
        for predicate in sorted(set(snapshot.views) | program.idb_predicates()):
            want = model.get(predicate, set())
            got = snapshot.views[predicate].rows() if predicate in snapshot.views else set()
            if want != got:
                self.fail(
                    f"{label}: view {predicate}: {len(got)} vs oracle {len(want)} tuples "
                    f"(view-only sample {sorted(got - want, key=repr)[:5]}, "
                    f"oracle-only sample {sorted(want - got, key=repr)[:5]})"
                )
        query = self.scenario.base.query
        routed = target.query(query).answers
        expected = query.select(model.get(query.predicate, ()))
        if routed != expected:
            self.fail(f"{label}: query {query}: {len(routed)} answers vs oracle {len(expected)}")

    def check_answers(self, observed: List[List[ServiceResult]]) -> None:
        """Every answer equals the oracle's over its epoch; epochs never go back per reader."""
        for results in observed:
            last_epoch = -1
            for result in results:
                if result.epoch < last_epoch:
                    self.fail(f"epochs moved backwards for one reader: {result.epoch} after {last_epoch}")
                last_epoch = max(last_epoch, result.epoch)
                query = result.result.query
                expected = query.select(self.model(result.epoch, result.snapshot.edb).get(query.predicate, ()))
                if result.answers != expected:
                    self.fail(
                        f"{query} @epoch {result.epoch} ({result.strategy}): {len(result.answers)} answers "
                        f"vs oracle {len(expected)} (extra {sorted(result.answers - expected, key=repr)[:5]}, "
                        f"missing {sorted(expected - result.answers, key=repr)[:5]})"
                    )
                self.report.queries_checked += 1
        self.report.epochs_observed = len({result.epoch for results in observed for result in results})

    def check_replay_idempotent(self, label: str) -> None:
        """Recover off the same files and replay the WAL again: nothing may change."""
        self.report.checks += 1
        probe = DurableStore(self.directory, StorageConfig(fsync=False))
        try:
            recovered = probe.recover()
            if recovered is None:
                self.fail(f"{label}: probe store found no recoverable state")
                return
            before = _edb_state(recovered.database)
            epoch, _replayed = probe.replay_into(recovered.database, recovered.snapshot_epoch)
            if epoch != recovered.epoch:
                self.fail(f"{label}: double replay moved the epoch {recovered.epoch} -> {epoch}")
            if _edb_state(recovered.database) != before:
                self.fail(f"{label}: double replay changed the EDB")
        finally:
            probe.close()

    # ------------------------------------------------------------------
    # the writer
    # ------------------------------------------------------------------
    def acked(self, what: str, call):
        """``call()``; under a fault plan, retried on a typed transient refusal until acknowledged."""
        deadline = time.monotonic() + _STEP_DEADLINE_SECONDS
        while True:
            try:
                return call()
            except _RETRYABLE as exc:
                if not self.scenario.schedule:
                    raise
                self.report.writer_retries += 1
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"{what} not acknowledged within {_STEP_DEADLINE_SECONDS}s; last error: {exc}"
                    ) from exc
                time.sleep(0.002)

    def drive(self, target, steps, first: int = 0) -> Optional[Exception]:
        """Write ``steps`` (script index ``first`` first) through ``target``;
        the error that stopped the writer, if any.

        A ``Session`` is checked after every step.  A durable service is
        waited on per write, so each acknowledged step is one epoch.
        """
        scenario = self.scenario
        wait = {"wait": True, "timeout": 5.0} if scenario.snapshot_interval else {}
        barrier_timeout = 5.0 if scenario.schedule else 30.0
        try:
            for index, step in enumerate(steps, first):
                if self.report.mismatches:
                    break  # keep the first divergence reproducible, skip cascading noise
                write = getattr(target, step.op)
                self.acked(f"write {step}", lambda: write(step.relation, list(step.rows), **wait))
                if isinstance(target, Session):
                    self.check_state(f"step {index} ({step})", target)
                if index in scenario.barrier_after:
                    self.acked("barrier", lambda: target.barrier(timeout=barrier_timeout))
        except Exception as exc:  # noqa: BLE001 - the caller decides
            return exc
        return None

    # ------------------------------------------------------------------
    # the families
    # ------------------------------------------------------------------
    def replay(self) -> None:
        """No service: the script through one ``Session``, checked after every step."""
        scenario = self.scenario
        session = Session(scenario.base.program, scenario.base.database.copy())
        self.report.strategy = session.view.strategy
        self.check_state("initial", session)
        error = self.drive(session, scenario.steps)
        if error is not None:
            raise error
        if self.report.mismatches:
            return
        # the interpreted == kernel leg: the views, maintained through
        # generated kernels, against a recompute on the step machine
        with step_machine():
            interpreted = seminaive_evaluate(scenario.base.program, session.database)
        for predicate in sorted(set(interpreted) | set(session.view.derived)):
            want = interpreted[predicate].rows() if predicate in interpreted else set()
            got = session.view.derived[predicate].rows() if predicate in session.view.derived else set()
            if want != got:
                self.fail(
                    f"final interpreted cross-check: {predicate}: view={len(got)} vs "
                    f"interpreted recompute={len(want)} tuples"
                )

    def open(self, program=None, database: Optional[Database] = None) -> DatalogService:
        """The scenario's service: durable over ``directory`` with a ``snapshot_interval``."""
        scenario = self.scenario
        config = None
        if scenario.snapshot_interval:
            config = StorageConfig(
                # the wal.fsync site only exists on the fsync path
                fsync=any(site == "wal.fsync" for site, _ordinal, _kind in scenario.schedule),
                snapshot_interval=scenario.snapshot_interval,
            )
        return DatalogService(
            program,
            database,
            readers=2,
            flush_policy=scenario.policy,
            storage=self.directory if config else None,
            storage_config=config,
            metrics=self.registry,
            retry=(
                RetryPolicy(max_attempts=3, base_delay_seconds=0.0005, max_delay_seconds=0.005)
                if scenario.schedule
                else None
            ),
        )

    def recover(self, epoch: int, label: str) -> Optional[DatalogService]:
        """Reopen the directory: it must land on ``epoch`` and hold that epoch's state."""
        service = self.open()
        if self.report.recovered_epoch < 0:
            self.report.recovered_epoch = service.epoch
        if service.epoch != epoch:
            self.fail(f"{label} landed on epoch {service.epoch}, expected {epoch}")
            service.close()
            return None
        self.check_state(label, service)
        self.check_replay_idempotent(f"{label}: idempotence")
        return service

    def serve(self) -> None:
        """The script through a service, with the scenario's threads, crash point and faults."""
        scenario, report = self.scenario, self.report
        service = self.open(scenario.base.program, scenario.base.database.copy())
        report.strategy = service.session.view.strategy
        crashing = bool(scenario.crash_kind and scenario.steps)
        if crashing:
            # "after" and "torn" both let the append complete; "torn" then
            # cuts the written frame, as a crash landing mid-write would
            hook = "crash_before_append" if scenario.crash_kind == "before" else "crash_after_append"
            setattr(service.storage, hook, scenario.crash_append)
        plan = FaultPlan()
        for site, ordinal, kind in scenario.schedule:
            plan.at(site, ordinal, _FAULT_ACTIONS[kind]())
        try:
            pool = _query_pool(scenario, service.snapshot())
            errors: List[str] = []
            timeouts: List[int] = []
            observed: List[List[ServiceResult]] = [[] for _ in range(scenario.readers)]
            threads = [
                threading.Thread(
                    target=_reader,
                    args=(scenario, service, index, pool, observed[index], errors, timeouts),
                    name=f"scenario-reader-{index}",
                )
                for index in range(scenario.readers)
            ]
            # a plan activates after construction: the genesis snapshot and
            # first segment are sound, like a disk that degrades in service
            with inject(plan) if scenario.schedule else nullcontext():
                for thread in threads:
                    thread.start()
                error = self.drive(service, scenario.steps)
                if scenario.schedule:
                    self.await_healthy(service)
                for thread in threads:
                    thread.join(timeout=_THREAD_DEADLINE_SECONDS)
            if any(thread.is_alive() for thread in threads):
                self.fail(f"a reader thread did not finish within {_THREAD_DEADLINE_SECONDS}s")
                return
            report.mismatches.extend(errors)
            report.timeouts_observed = len(timeouts)
            report.faults_fired = tuple(plan.fired)
            report.final_health = service.health
            if crashing:
                if not (isinstance(error, RuntimeError) and service.storage_failed is not None):
                    self.fail(f"the seeded crash never fired (writer stopped by {error!r})")
                    return
                if service.epoch != scenario.crash_append - 1:
                    self.fail(
                        f"crashed service published epoch {service.epoch}; the failed batch "
                        f"must stay unpublished (expected {scenario.crash_append - 1})"
                    )
            else:
                if error is not None:
                    self.fail(f"writer: {type(error).__name__}: {error}")
                self.check_final(service, observed)
        finally:
            service.close()
        if not scenario.snapshot_interval:
            return
        if crashing:
            if scenario.crash_kind == "torn":
                # the newest segment's final frame, the crashed record, loses
                # its tail byte; the recovered service opens a fresh segment
                # past the tear, and the last recovery replays both sides
                last = segment_files(self.directory)[-1]
                last.write_bytes(last.read_bytes()[:-1])
            recovered = self.recover(scenario.expected_epoch, "recovery")
            if recovered is None:
                return
            error = self.drive(recovered, scenario.steps[recovered.epoch:], recovered.epoch)
            if error is not None:
                self.fail(f"continuation writer: {type(error).__name__}: {error}")
            if recovered.epoch != len(scenario.steps):
                self.fail(f"continuation ended at epoch {recovered.epoch}, expected {len(scenario.steps)}")
            self.check_state("post-continuation", recovered, len(scenario.steps))
            recovered.close()
        reopened = self.recover(len(scenario.steps), "final recovery")
        if reopened is not None:
            reopened.close()

    def await_healthy(self, service: DatalogService) -> None:
        deadline = time.monotonic() + _HEAL_DEADLINE_SECONDS
        while time.monotonic() < deadline:
            if service.health == HEALTHY and not service._unlogged:
                return
            time.sleep(0.005)
        self.fail(
            f"service did not return to HEALTHY within {_HEAL_DEADLINE_SECONDS}s "
            f"(health={service.health}, storage_failed={service.storage_failed!r}, "
            f"unlogged={len(service._unlogged)})"
        )

    def check_final(self, service: DatalogService, observed: List[List[ServiceResult]]) -> None:
        """After a barrier: the sequential state, every answer, and a single-threaded ``Session``."""
        scenario = self.scenario
        if scenario.schedule:
            # degraded != dead, and healed means healed on the scrape path
            # operators watch as well as on the object
            exported = _exported_health_state(self.registry)
            if exported is None:
                self.fail("repro_service_health_state missing from scrape")
            elif service.health == HEALTHY and exported != 0.0:
                self.fail(f"exported health gauge says {exported}, service says {service.health}")
        barrier_epoch = self.acked("final barrier", lambda: service.barrier(timeout=30))
        if scenario.snapshot_interval and service.epoch != len(scenario.steps):
            self.fail(
                f"final epoch {service.epoch}, expected {len(scenario.steps)} "
                "(every effective step was acknowledged)"
            )
        final = service.query(scenario.base.query)
        if final.epoch < barrier_epoch:
            self.fail(f"final query observed epoch {final.epoch} < barrier epoch {barrier_epoch}")
        for results in observed:
            results.append(final)
        self.check_answers(observed)
        self.check_state("final state", service, len(scenario.expected) - 1)
        session = Session(scenario.base.program, scenario.base.database.copy())
        for step in scenario.steps:
            getattr(session, step.op)(step.relation, list(step.rows))
        sequential = session.query(scenario.base.query)
        if sequential.answers != final.answers:
            self.fail(
                f"final answers diverge from single-threaded Session: "
                f"service {len(final.answers)} vs session {len(sequential.answers)}"
            )
        self.report.stats = service.stats


def run_scenario(scenario: Scenario, directory: Optional[Path] = None) -> ScenarioReport:
    """Drive ``scenario`` and check it against the oracle; see the module docstring.

    A durable scenario needs an empty ``directory`` of its own.
    """
    run = _Run(scenario, None if directory is None else Path(directory))
    if scenario.policy is None:
        run.replay()
    else:
        run.serve()
    return run.report
