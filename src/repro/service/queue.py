"""Write coalescing: many client writes, one maintenance round.

Incremental maintenance (PR 3's DRed / counting machinery) prices a mutation
round mostly by its fixed costs — hook dispatch, delta seeding, stratum
walks — so ten clients each inserting one fact pay nearly ten times what one
client inserting ten facts pays.  The :class:`WriteQueue` recovers that
factor for concurrent writers: client ``insert``/``delete`` calls enqueue
:class:`WriteTicket`\\ s and return immediately; a single flusher thread
drains the queue per :class:`FlushPolicy` and applies each drained batch as
one maintenance round.

Coalescing is *net effect per (relation, row)*: within one batch the last
operation on a row wins, which is equivalent to sequential application for
the resulting database state (Datalog relations are sets, so per-row
last-write-wins composes), and therefore for the resulting views (a
maintained view is a pure function of the database).  Intermediate states
skipped by coalescing are unobservable by construction — readers only ever
see published post-flush epochs.

Flush triggers, any of which releases a waiting flusher:

* **size** — at least ``policy.max_batch`` tickets are pending;
* **latency deadline** — the oldest pending ticket has waited
  ``policy.max_delay_seconds``;
* **explicit barrier** — a barrier ticket flushes everything queued before
  it immediately (``DatalogService.barrier`` waits for the resulting epoch).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..datalog.relation import Row
from .retry import ServiceDegraded, ServiceOverloaded


class ServiceClosed(RuntimeError):
    """The service (or its write queue) is closed; the operation was refused.

    Subclasses :class:`RuntimeError` so callers that guarded against the old
    bare ``RuntimeError("service is closed")`` keep working.  Also used to
    *fail* tickets that were still pending when the service shut down — a
    waiter must never block forever on a write no flusher will ever apply.
    """


class FlushError(RuntimeError):
    """A flush failed; raised in each waiting client thread individually.

    One flusher-side exception can have many waiters.  Re-raising the single
    shared exception object from every ``wait`` call makes concurrent
    waiters race over its ``__traceback__`` (each ``raise`` mutates it), so
    every waiter gets its *own* :class:`FlushError` instead, chained to the
    flusher's exception via ``__cause__``.  The message carries the cause's
    text so existing ``except``-and-match callers keep working.
    """

    def __init__(self, ticket: "WriteTicket", cause: BaseException) -> None:
        super().__init__(f"flush of {ticket} failed: {cause}")
        self.ticket = ticket


@dataclass(frozen=True)
class FlushPolicy:
    """When the flusher should stop waiting for more writes to coalesce.

    ``max_batch`` bounds how many tickets one round may absorb (reaching it
    flushes immediately); ``max_delay_seconds`` bounds how long the oldest
    write may wait (the latency deadline).  A barrier always flushes now.

    ``max_pending`` is admission control: with a bound set, a write arriving
    while that many tickets already wait is refused with
    :class:`~repro.service.retry.ServiceOverloaded` instead of growing the
    queue without limit (barriers are exempt — draining must stay possible
    under overload).  The default ``None`` keeps the historical unbounded
    behavior.
    """

    max_batch: int = 64
    max_delay_seconds: float = 0.005
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("FlushPolicy.max_batch must be at least 1")
        if self.max_delay_seconds < 0:
            raise ValueError("FlushPolicy.max_delay_seconds cannot be negative")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("FlushPolicy.max_pending must be at least 1 (or None)")


class WriteTicket:
    """One enqueued write (or barrier) and its completion signal.

    ``wait`` blocks until the flusher has applied (or failed) the batch
    containing this ticket and returns the epoch whose published snapshot
    includes the write; a flush failure re-raises the flusher's exception in
    the waiting client thread.
    """

    __slots__ = ("op", "relation", "rows", "enqueued_at", "epoch", "error", "_done")

    INSERT = "insert"
    DELETE = "delete"
    BARRIER = "barrier"

    def __init__(self, op: str, relation: Optional[str] = None, rows: Tuple[Row, ...] = ()) -> None:
        if op not in (self.INSERT, self.DELETE, self.BARRIER):
            raise ValueError(f"unknown write operation {op!r}")
        self.op = op
        self.relation = relation
        self.rows = tuple(rows)
        self.enqueued_at: float = 0.0
        self.epoch: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    @property
    def is_barrier(self) -> bool:
        return self.op == self.BARRIER

    def done(self) -> bool:
        """``True`` once the ticket's batch has been applied (or failed)."""
        return self._done.is_set()

    def resolve(self, epoch: Optional[int] = None, error: Optional[BaseException] = None) -> None:
        """Mark the ticket finished; the *first* resolution wins.

        Two resolvers can race — ``close()`` failing an in-flight batch while
        a stuck flusher later finishes applying it — and the outcome a waiter
        observed must not be rewritten under it, so a resolved ticket ignores
        further resolutions.
        """
        if self._done.is_set():
            return
        self.epoch = epoch
        self.error = error
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until applied; returns the epoch that includes this write.

        A flush failure raises a fresh :class:`FlushError` *per waiter*
        (chained to the flusher's exception) — many threads can wait on one
        ticket, and re-raising one shared exception object would make them
        race over its traceback.  A ticket failed by shutdown re-raises as
        :class:`ServiceClosed` (still a fresh instance per waiter), so
        callers distinguishing "the service closed under me" from "my flush
        failed" can catch the type ``close()`` promises.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"write {self} not applied within {timeout}s")
        if self.error is not None:
            if isinstance(self.error, ServiceClosed):
                raise ServiceClosed(str(self.error)) from self.error
            if isinstance(self.error, ServiceDegraded):
                # same per-waiter freshness as ServiceClosed, and the same
                # "catch the promised type" ergonomics: a batch refused by a
                # degraded service re-raises as ServiceDegraded, not as a
                # generic FlushError
                raise ServiceDegraded(str(self.error)) from self.error
            raise FlushError(self, self.error) from self.error
        assert self.epoch is not None
        return self.epoch

    def __str__(self) -> str:
        if self.is_barrier:
            return "WriteTicket(barrier)"
        return f"WriteTicket({self.op} {self.relation} ×{len(self.rows)})"


@dataclass
class CoalescedWrite:
    """The net effect of one drained batch on one relation."""

    relation: str
    deletes: List[Row]
    inserts: List[Row]


def coalesce(tickets: List[WriteTicket]) -> List[CoalescedWrite]:
    """Net-effect plan for a batch: last operation per (relation, row) wins.

    Produces at most one delete batch and one insert batch per relation
    (their row sets are disjoint by construction), in first-touched relation
    order with stable row order — deterministic for tests and logs.
    """
    net: "OrderedDict[Tuple[str, Row], str]" = OrderedDict()
    for ticket in tickets:
        if ticket.is_barrier:
            continue
        for row in ticket.rows:
            key = (ticket.relation, row)
            net.pop(key, None)  # re-append so later ops keep arrival order
            net[key] = ticket.op
    grouped: "OrderedDict[str, CoalescedWrite]" = OrderedDict()
    for (relation, row), op in net.items():
        group = grouped.get(relation)
        if group is None:
            group = grouped[relation] = CoalescedWrite(relation, [], [])
        (group.deletes if op == WriteTicket.DELETE else group.inserts).append(row)
    return list(grouped.values())


class WriteQueue:
    """A thread-safe ticket queue with policy-driven blocking drains."""

    def __init__(self, policy: Optional[FlushPolicy] = None) -> None:
        self.policy = policy or FlushPolicy()
        self._cond = threading.Condition()
        self._pending: List[WriteTicket] = []
        #: the batch the flusher most recently drained (tickets move here
        #: atomically under the condition lock, so no ticket is ever in
        #: neither list) — ``fail_pending`` covers its unresolved tickets
        self._inflight: List[WriteTicket] = []
        self._closed = False

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def put(self, ticket: WriteTicket) -> WriteTicket:
        """Enqueue a ticket; wakes the flusher when a trigger is reached.

        With ``policy.max_pending`` set, a non-barrier ticket arriving at a
        full queue is shed with :class:`ServiceOverloaded` — bounded memory
        under writer storms, and an explicit backpressure signal instead of
        silently unbounded latency.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosed("write queue is closed")
            limit = self.policy.max_pending
            if (
                limit is not None
                and not ticket.is_barrier
                and len(self._pending) >= limit
            ):
                raise ServiceOverloaded(
                    f"write queue is full ({len(self._pending)} pending >= "
                    f"max_pending {limit}); retry after the flusher drains"
                )
            ticket.enqueued_at = time.monotonic()
            self._pending.append(ticket)
            # the first ticket arms the flusher's max_delay wait; a barrier or
            # a full batch ends it early.  Any other ticket rides that wait:
            # ``drain`` re-checks the queue before every wait, so none strands.
            if len(self._pending) == 1 or ticket.is_barrier or len(self._pending) >= self.policy.max_batch:
                self._cond.notify_all()
        return ticket

    def close(self) -> None:
        """Refuse new tickets and wake the flusher to drain what remains."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def fail_pending(self, error: BaseException) -> int:
        """Resolve every unresolved ticket with ``error``; returns the count.

        The shutdown escape hatch: when the flusher cannot (or will not)
        drain the queue — a stuck flush, a dead store — the tickets must not
        leave their waiters blocked forever.  Covers both the tickets still
        queued *and* the drained in-flight batch a stuck flusher never
        resolved; a racing late resolution loses (first resolution wins).
        """
        with self._cond:
            abandoned = self._pending + [
                ticket for ticket in self._inflight if not ticket.done()
            ]
            self._pending = []
            self._inflight = []
        for ticket in abandoned:
            ticket.resolve(error=error)
        return len(abandoned)

    # ------------------------------------------------------------------
    # flusher side
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def pending(self) -> int:
        """How many tickets are waiting (snapshot; racy by nature)."""
        with self._cond:
            return len(self._pending)

    def oldest_age(self) -> float:
        """Seconds the oldest pending ticket has waited (0.0 when empty).

        The health-check signal: under a live flusher this never exceeds the
        policy's latency deadline by much, so a large value means the flusher
        is wedged and epochs have stopped advancing.
        """
        with self._cond:
            if not self._pending:
                return 0.0
            return time.monotonic() - self._pending[0].enqueued_at

    def _ready(self) -> bool:
        if len(self._pending) >= self.policy.max_batch:
            return True
        return any(ticket.is_barrier for ticket in self._pending)

    def drain(self) -> Optional[List[WriteTicket]]:
        """Block per policy, then take every pending ticket at once.

        Returns ``None`` when the queue is closed and fully drained (the
        flusher's exit signal).  A drain may exceed ``max_batch`` tickets —
        the cap is a *trigger*, not a splitter; everything pending rides the
        same maintenance round.
        """
        with self._cond:
            while True:
                if self._pending:
                    if self._closed or self._ready():
                        break
                    age = time.monotonic() - self._pending[0].enqueued_at
                    remaining = self.policy.max_delay_seconds - age
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                else:
                    if self._closed:
                        return None
                    self._cond.wait()
            batch = self._pending
            self._pending = []
            # recorded under the lock: a ticket is always in exactly one of
            # _pending/_inflight, so fail_pending can never miss the window
            # between a drain and the flusher resolving the batch
            self._inflight = batch
            return batch
