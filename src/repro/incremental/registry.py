"""The view registry: database mutation hooks fanned out to materialized views.

A :class:`ViewRegistry` attaches to one :class:`~repro.datalog.database.Database`
as a :class:`~repro.datalog.database.DatabaseListener` and owns any number of
:class:`~repro.incremental.view.MaterializedView` instances.  Every effective
fact-level mutation made through the database's fact APIs is routed to every
view, which keeps the relations its *maintenance* program mentions; the
delete-then-insert phases let each strategy read the state it needs (counting
insertions and the DRed overestimate run before their side is applied,
everything else after).

Wholesale relation replacement (``Database.add_relation``) carries no delta,
so affected views are invalidated instead and rebuilt on their next use.

Epochs and locking
------------------
The registry carries a monotone **epoch** counter: every effective
maintenance round (one :meth:`~repro.datalog.database.Database.mutate` call,
whatever relations its deletes and inserts touch, or a wholesale relation
replacement) advances it by one, and the set of predicates the round touched
— the mutated EDB relations plus every view predicate whose materialized
relation actually changed (detected by the relations' mutation
``version`` counters, so a write that maintenance proves irrelevant to one
derived relation does not invalidate cached answers on it) — is
accumulated until a serving layer collects it with :meth:`collect_touched`.
The serving layer (:mod:`repro.service`) keys its published snapshots and its
result cache by that epoch, which is what makes "which cached answers does
this write invalidate?" a precise set-membership question instead of a
flush-everything guess.

``registry.lock`` is a reentrant lock serializing maintenance rounds against
each other and against snapshot publication.  :class:`~repro.incremental.session.Session`
acquires it around every mutation and query, so one registry can safely be
driven from many threads; readers that only touch published frozen snapshots
never need it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set, Tuple

from ..datalog.database import Changes, Database, DatabaseListener
from ..datalog.errors import SchemaError
from ..datalog.rules import Program
from ..engine.instrumentation import EvaluationStats
from .view import MaterializedView


class ViewRegistry(DatabaseListener):
    """Materialized views over one database, kept fresh through its hooks."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.views: Dict[str, MaterializedView] = {}
        #: maintenance work of the most recent mutation, across all views
        self.last_stats = EvaluationStats()
        #: monotone maintenance-round counter (see module docstring)
        self.epoch = 0
        #: serializes maintenance rounds and snapshot publication (reentrant,
        #: so the database hooks may fire while a Session already holds it)
        self.lock = threading.RLock()
        self._touched_since_collect: Set[str] = set()
        #: per-round baseline of derived-relation versions (captured by
        #: ``before_delete``, the round's first phase, diffed by ``after_insert``)
        self._round_versions: Dict[str, Dict[str, int]] = {}
        database.add_listener(self)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def materialize(
        self,
        program: Program,
        name: str = "default",
        max_unfold_depth: int = 8,
    ) -> MaterializedView:
        """Pin ``program``'s IDB relations as a maintained view called ``name``."""
        if name in self.views:
            raise SchemaError(f"a view named {name} is already registered")
        view = MaterializedView(name, program, self.database, max_unfold_depth)
        self.views[name] = view
        return view

    def drop(self, name: str) -> None:
        """Deregister a view; unknown names raise :class:`SchemaError`."""
        if name not in self.views:
            raise SchemaError(f"no view named {name} is registered")
        del self.views[name]

    def view(self, name: str) -> MaterializedView:
        """The view called ``name``; raises :class:`SchemaError` when unknown."""
        if name not in self.views:
            raise SchemaError(f"no view named {name} is registered")
        return self.views[name]

    def view_for(self, predicate: str) -> Optional[MaterializedView]:
        """The first registered view materializing ``predicate``, if any."""
        for view in self.views.values():
            if predicate in view.predicates:
                return view
        return None

    def detach(self) -> None:
        """Stop observing the database (views stop being maintained)."""
        self.database.remove_listener(self)

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def restore_epoch(self, epoch: int) -> None:
        """Re-anchor the epoch counter (the crash-recovery path).

        A recovered service rebuilds its views by replaying the persisted EDB
        through ordinary mutations, which advances this counter arbitrarily;
        re-anchoring to the durable epoch keeps post-recovery snapshots and
        cache keys continuous with the pre-crash history.  Only valid between
        maintenance rounds (the caller holds no pending ticket).
        """
        with self.lock:
            self.epoch = epoch
            self._touched_since_collect = set()

    def collect_touched(self) -> Tuple[int, Set[str]]:
        """The current epoch plus every predicate touched since the last collect.

        The serving layer calls this once per snapshot publication; the
        touched set is handed over (and reset), so two publications never
        invalidate the same cached result twice.
        """
        with self.lock:
            touched = self._touched_since_collect
            self._touched_since_collect = set()
            return self.epoch, touched

    # ------------------------------------------------------------------
    # DatabaseListener protocol: one round is the four phases of one mutation
    # ------------------------------------------------------------------
    def before_delete(self, database: Database, deletes: Changes) -> None:
        with self.lock:
            self.last_stats = EvaluationStats()
            self._round_versions = {
                view.name: {predicate: relation.version for predicate, relation in view.derived.items()}
                for view in self.views.values()
            }
            for view in self.views.values():
                self.last_stats.merge(view.before_delete(database, deletes))

    def after_delete(self, database: Database, deletes: Changes) -> None:
        with self.lock:
            for view in self.views.values():
                self.last_stats.merge(view.after_delete(database, deletes))
            self._touched_since_collect.update(deletes)

    def before_insert(self, database: Database, inserts: Changes) -> None:
        with self.lock:
            for view in self.views.values():
                self.last_stats.merge(view.before_insert(database, inserts))

    def after_insert(self, database: Database, inserts: Changes) -> None:
        """The round's last phase: maintain, then advance the epoch once.

        The mutated EDB relations always count as touched (the database
        filtered the round down to an effective delta before the hooks
        fired); a view predicate counts only when its relation's ``version``
        moved since ``before_delete`` — maintenance that proved the round
        irrelevant to a derived relation leaves its cached answers valid.
        """
        with self.lock:
            for view in self.views.values():
                self.last_stats.merge(view.after_insert(database, inserts))
            baseline = self._round_versions
            self._round_versions = {}
            self.epoch += 1
            self._touched_since_collect.update(inserts)
            for view in self.views.values():
                seen = baseline.get(view.name)
                for predicate, relation in view.derived.items():
                    if seen is None or seen.get(predicate) != relation.version:
                        self._touched_since_collect.add(predicate)

    def on_relation_replaced(self, database: Database, name: str) -> None:
        with self.lock:
            affected = [view for view in self.views.values() if view.relevant_to(name)]
            for view in affected:
                view.invalidate()
            # no before-hook ran, so no baseline exists: every predicate of
            # an invalidated view is conservatively touched
            self._round_versions = {}
            self.epoch += 1
            self._touched_since_collect.add(name)
            for view in affected:
                self._touched_since_collect.update(view.predicates)
