"""``repro.Session`` — the serving front door over a mutating database.

:func:`repro.answer` optimizes one query against one frozen database.  A
:class:`Session` is its counterpart for the serving workload the ROADMAP
targets: the program's IDB relations are materialized once at construction,
kept incrementally correct as facts are inserted and deleted, and queries
on them become plain indexed lookups — no fixpoint, no rewrite chain, no
per-query evaluation at all.

>>> from repro import Database, Session, parse_program
>>> program = parse_program('''
...     t(X, Y) :- a(X, Z), t(Z, Y).
...     t(X, Y) :- b(X, Y).
... ''')
>>> db = Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})
>>> session = Session(program, db)
>>> sorted(session.query("t(1, Y)?").answers)
[(1, 4)]
>>> session.insert("b", (2, 9))
1
>>> sorted(session.query("t(1, Y)?").answers)
[(1, 4), (1, 9)]
>>> session.delete("b", (3, 4))
1
>>> sorted(session.query("t(1, Y)?").answers)
[(1, 9)]

Maintenance rounds and epochs
-----------------------------
Every write is one :meth:`Session.mutate`: one
:meth:`~repro.datalog.database.Database.mutate` call that runs the view's four
maintenance phases once, whatever relations its deletes and inserts touch.
An effective round advances the session's monotone **epoch** by one — once
per round, not per relation or per phase, so a published snapshot never
shows half a round — and adds the predicates it touched to a set the serving
layer (:mod:`repro.service`) collects with :meth:`Session.collect_touched`.
The mutated EDB relations always count as touched (the database filtered the
round down to an effective delta first); a derived predicate counts only
when its relation's ``version`` moved during the round, so a write that
maintenance proves irrelevant to one derived relation leaves its cached
answers valid.  That is what makes "which cached answers does this write
invalidate?" a set-membership question instead of a flush-everything guess.

Only the session's own writes are maintained: changing ``session.database``
directly (a fact API, ``add_relation``, or a :class:`Relation` in place)
bypasses the view, its epoch and its touched set.

``session.lock`` is a reentrant lock serializing maintenance rounds against
each other, against queries and against snapshot publication, so
one session may be driven from many threads; readers that only touch
published frozen snapshots never need it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple, Union

from ..datalog.database import Database, check_arity
from ..datalog.parser import parse_program
from ..datalog.relation import Row, Value
from ..datalog.rules import Program
from ..engine.instrumentation import EvaluationStats
from ..engine.query import QueryResult, as_selection_query, lookup_result
from .view import MaterializedView

RowsLike = Union[Sequence[Value], Iterable[Sequence[Value]]]


def as_rows(rows: RowsLike) -> list:
    """Accept one row (a tuple of scalars) or an iterable of rows.

    A bare string is one *value*, not an iterable of rows — iterating it
    character by character would silently insert garbage single-character
    tuples.  A flat tuple or list of scalars is one *row* (``[1, 2]`` and
    ``(1, 2)`` both mean the single pair), so multiple single-column rows
    must be spelled ``[(1,), (2,)]``.

    Mixing rows and scalars (``[(1, 2), 3]``) is ambiguous — is ``3`` a row
    or a stray value? — and raises :class:`ValueError` naming the offending
    element, instead of the bare ``TypeError`` that ``tuple(3)`` used to
    surface from deep inside the flusher.
    """
    if isinstance(rows, str):
        return [(rows,)]
    if isinstance(rows, (tuple, list)):
        if rows and all(not isinstance(value, (tuple, list)) for value in rows):
            return [tuple(rows)]
        return _rows_of(list(rows), scalars_are_rows=False)
    # other iterables (generators, sets): each element is one row; bare
    # scalar elements are single-column rows, as long as nothing is mixed
    return _rows_of(list(rows), scalars_are_rows=True)


def _rows_of(rows: list, *, scalars_are_rows: bool) -> list:
    """Each element as one row; mixing rows with scalars is an error."""
    has_row = any(isinstance(row, (tuple, list)) for row in rows)
    out = []
    for index, row in enumerate(rows):
        if isinstance(row, (tuple, list)):
            out.append(tuple(row))
        elif scalars_are_rows and not has_row:
            out.append((row,))
        else:
            raise ValueError(
                f"rows must all be tuples/lists, but element {index} is "
                f"{row!r}; pass a flat sequence of scalars for a single row, "
                f"or wrap each row (e.g. ({row!r},)) for multiple rows"
            )
    return out


class Session:
    """A database plus a maintained materialized view of one program.

    ``insert``/``delete`` run the view's maintenance phases around the
    database change, so every pinned relation is maintained in place;
    ``query`` answers every selection by one indexed lookup: materialized
    predicates against the view, the rest against the stored EDB.

    Mutations and queries hold :attr:`lock`, so a Session may be
    shared between threads; for many concurrent readers use
    :class:`repro.service.DatalogService`, whose published snapshots let
    readers skip the lock entirely.
    """

    def __init__(
        self,
        program: Union[Program, str],
        database: "Database | None" = None,
        name: str = "default",
    ) -> None:
        self.program = parse_program(program) if isinstance(program, str) else program
        self.database = database if database is not None else Database()
        self.view = MaterializedView(name, self.program, self.database)
        #: serializes maintenance rounds, queries and snapshot
        #: publication (reentrant: the service holds it around ``mutate``)
        self.lock = threading.RLock()
        #: monotone maintenance-round counter (see the module docstring)
        self.epoch = 0
        self._touched: Set[str] = set()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, name: str, rows: RowsLike) -> int:
        """Insert one row or many into relation ``name``; returns how many were new."""
        return len(self.mutate(inserts={name: as_rows(rows)})[1].get(name, ()))

    def delete(self, name: str, rows: RowsLike) -> int:
        """Delete one row or many from relation ``name``; returns how many were present."""
        return len(self.mutate(deletes={name: as_rows(rows)})[0].get(name, ()))

    def mutate(
        self,
        deletes: Optional[Mapping[str, Iterable[Row]]] = None,
        inserts: Optional[Mapping[str, Iterable[Row]]] = None,
    ) -> Tuple[Dict[str, Tuple[Row, ...]], Dict[str, Tuple[Row, ...]]]:
        """Delete, then insert, over any relations as one maintenance round.

        :meth:`Database.mutate` under :attr:`lock`: the view sees each
        maintenance phase once for the whole batch and the epoch advances
        once.  Every insert must fit its relation's arity (:meth:`arity_of`),
        checked before anything changes.  Returns the effective
        ``(deleted, inserted)`` rows per relation.
        """
        inserts = {name: list(rows) for name, rows in (inserts or {}).items()}
        with self.lock:
            for name, rows in inserts.items():
                arity = self.arity_of(name)
                if arity is not None:
                    check_arity(name, arity, rows)
            view = self.view
            # a no-op mutation runs no phase, so clear last_stats up front lest
            # it keep reporting the previous operation's work
            view.last_stats = EvaluationStats()
            versions = {predicate: relation.version for predicate, relation in view.derived.items()}
            deleted, inserted = self.database.mutate(deletes, inserts, view)
            if deleted or inserted:
                self.epoch += 1
                self._touched.update(deleted, inserted)
                self._touched.update(
                    predicate
                    for predicate, relation in view.derived.items()
                    if versions.get(predicate) != relation.version
                )
            return deleted, inserted

    def collect_touched(self) -> Set[str]:
        """Every predicate touched since the last collect, handed over and reset.

        The serving layer calls this once per snapshot publication, so two
        publications never invalidate the same cached result twice.
        """
        with self.lock:
            touched, self._touched = self._touched, set()
            return touched

    def restore_epoch(self, epoch: int) -> None:
        """Re-anchor the epoch counter (the crash-recovery path).

        A recovered service rebuilds its view from the replayed EDB, but the
        durable history had reached ``epoch``; re-anchoring keeps
        post-recovery snapshots and cache keys continuous with the pre-crash
        history.  Only valid between maintenance rounds.
        """
        with self.lock:
            self.epoch = epoch
            self._touched = set()

    def arity_of(self, name: str) -> Optional[int]:
        """The arity rows of relation ``name`` must have: stored, else the program's, else ``None``."""
        if self.database.has_relation(name):
            return self.database.relation(name).arity
        if name in self.program.predicates():
            return self.program.arity_of(name)
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query) -> QueryResult:
        """Answer a selection query by one indexed lookup; nothing evaluates.

        A query on a materialized predicate reads the maintained relation.
        Every IDB predicate is materialized, so any other predicate is EDB: a
        lookup against the stored relation, or against an empty one when
        nothing is stored under that name.  To cross-check the view against
        live evaluation, call :func:`repro.answer` on :attr:`program` and
        :attr:`database` directly.
        """
        selection = as_selection_query(self.program, query)
        with self.lock:
            view = self.view
            if selection.predicate in view.derived:
                return lookup_result(
                    selection,
                    view.relation(selection.predicate),
                    f"materialized-view ({view.strategy})",
                    view.provenance,
                )
            relation = self.database.relation_or_empty(selection.predicate, selection.arity)
            return lookup_result(selection, relation, "edb-lookup")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def facts(self, name: str) -> Set[Row]:
        """The decoded EDB rows currently stored under relation ``name``.

        The read counterpart of :meth:`insert`/:meth:`delete`: a copy of the
        stored tuple set in caller-value space (EDB relations are stored
        undecoded — interning only happens inside the engine — so no decode
        pass is needed).  Unknown relations return an empty set, mirroring
        how :meth:`delete` treats them as empty.
        """
        with self.lock:
            if not self.database.has_relation(name):
                return set()
            return set(self.database.relation(name).rows())

    @property
    def maintenance_stats(self) -> EvaluationStats:
        """Cumulative maintenance work of the session's view."""
        return self.view.stats

    @property
    def last_stats(self) -> EvaluationStats:
        """Maintenance work of the most recent insert/delete."""
        return self.view.last_stats

    def __str__(self) -> str:
        return f"Session({self.view!s} over {self.database!s})"
