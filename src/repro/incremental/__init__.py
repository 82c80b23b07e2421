"""Incremental view maintenance: materialized views that survive EDB updates.

The serving layer of the library.  ``repro.answer`` optimizes one query
against one frozen database; this package keeps a program's derived
relations *pinned and correct across time* as the database takes insertions
and deletions, so repeated queries are indexed lookups instead of repeated
fixpoints — the paper's delta-based evaluation idea applied across updates
instead of across iterations.

* :class:`MaterializedView` — one program's IDB relations plus their
  maintenance machinery (counting for nonrecursive/unfolded programs, DRed
  for recursive ones);
* :class:`Session` — the front door: ``insert`` / ``delete`` / ``query``;
  it owns one view, drives its maintenance phases through
  :meth:`~repro.datalog.database.Database.mutate`, and counts the epochs the
  serving layer publishes.
"""

from .counting import CountingState, initialize_counts
from ..engine.compile import PlanCache
from .session import Session
from .view import MaterializedView, ViewProvenance

__all__ = [
    "CountingState",
    "MaterializedView",
    "PlanCache",
    "Session",
    "ViewProvenance",
    "initialize_counts",
]
