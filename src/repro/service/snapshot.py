"""Versioned snapshots: one epoch's consistent, immutable view of the world.

A :class:`ServiceSnapshot` is what the serving layer publishes to readers
after every maintenance round: the session epoch it corresponds to, frozen
handles for every materialized IDB relation, and frozen handles for every
stored EDB relation.  Freezing is O(1) copy-on-write
(:meth:`repro.datalog.relation.Relation.freeze`), so publication costs one
dict walk regardless of database size, and a relation untouched since the
previous publication is republished as the same handle (readers' lazily
built indexes included).  The *writer* pays, lazily and in proportion to
what it writes: its first effective post-publication mutation of a relation
takes back a storage that relation published earlier and that no reader can
reach any more (the frozen handle sharing it is gone), replays the writes
that storage missed — one catch-up the size of the commits in between — and
from then on copies only the index buckets whose keys the commit's rows
actually land on.  Copying the relation's row set and each index's key dict
(flat C-level copies) is the fallback: the first commits after open, or
clients holding the two previous epochs as well as the published one.  A
written relation therefore holds up to three key layers, buckets shared.

That gives holding a snapshot a meaning: a relation's storage is reclaimed
once its frozen handle is unreachable, so whatever a reader takes out of a
snapshot relation by reference (``rows()``, an iterator) is valid only while
the :class:`ServiceSnapshot` — or the ``ServiceResult`` carrying it — is
referenced.  Answers, ``lookup()`` lists and probe buckets are unaffected.

Readers holding a snapshot never block writers and never observe a torn
state: every lookup runs against relations whose tuple sets are exactly
those of the published epoch.  The only thing a reader may mutate is a
frozen relation's lazy index cache, which is value-identical however the
race resolves.  Every IDB predicate of the program is in ``views``, so a
predicate in neither dict is an EDB predicate with no rows: a snapshot
answers every selection on its program by lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..datalog.relation import Relation
from ..incremental.session import Session


@dataclass(frozen=True)
class ServiceSnapshot:
    """An immutable, epoch-stamped view of one Session's database + views."""

    #: the session epoch this snapshot reflects (monotone across publications)
    epoch: int
    #: frozen materialized IDB relations, by predicate
    views: Dict[str, Relation]
    #: frozen stored EDB relations, by name
    edb: Dict[str, Relation]
    #: the maintenance strategy of the view the snapshot was taken from
    strategy: str = "unregistered"
    #: the view's registration provenance (a ``ViewProvenance``), if any
    provenance: Optional[object] = field(default=None, repr=False, compare=False)

    def relation(self, predicate: str) -> Optional[Relation]:
        """The frozen relation serving ``predicate`` (views win over EDB)."""
        relation = self.views.get(predicate)
        if relation is not None:
            return relation
        return self.edb.get(predicate)

    def __str__(self) -> str:
        return (
            f"ServiceSnapshot(epoch={self.epoch}, views={len(self.views)}, "
            f"edb={len(self.edb)})"
        )


def take_snapshot(session: Session) -> ServiceSnapshot:
    """Publish the session's current state as an epoch-stamped snapshot.

    Holds the session lock, so the epoch, the view relations and the EDB
    relations are mutually consistent even while writer threads are between
    maintenance rounds.
    """
    with session.lock:
        view = session.view
        return ServiceSnapshot(
            epoch=session.epoch,
            views=view.snapshot(),
            edb={
                relation.name: relation.freeze()
                for relation in session.database.relations()
            },
            strategy=view.strategy,
            provenance=view.provenance,
        )
