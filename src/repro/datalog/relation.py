"""Extensional relations.

A :class:`Relation` is a named set of fixed-arity tuples of plain Python
values (strings and numbers).  Relations are the storage layer under the
evaluation engine; the symbolic layer (atoms, rules, expansions) only touches
them through the engine.

Design notes
------------
* Tuples are stored in a plain ``set`` for O(1) membership and duplicate
  elimination (Datalog is set semantics).
* Per-column-set hash indexes are built lazily on first probe and then
  maintained incrementally by ``add``/``discard``/``clear``; a bulk
  ``discard_all`` filters each bucket it touches once.
  A lookup with ``k`` bound columns therefore touches only the matching
  tuples, which is what makes the paper's Property 3 ("never do an
  unrestricted lookup on a nonrecursive relation") observable in the
  instrumentation counters rather than hidden inside a full scan.
* Single-column indexes store their keys *unwrapped* — the bare column value
  instead of a one-element tuple — so the overwhelmingly common one-bound-
  column probe of a compiled join allocates no key tuple at all, which is
  what lets the generated join kernels run each probe as a single dict
  lookup.
* A probe that binds *every* column is row-set membership, so no index is
  materialized for it: such a signature is answered from ``_rows`` behind
  the same ``.get`` an index dict offers (an all-columns index would be one
  single-row bucket per tuple — a second copy of the relation).
* :meth:`Relation.freeze` publishes an immutable copy-on-write snapshot in
  O(1): the frozen handle shares the live relation's row set, index dicts
  and index buckets, and mutating the frozen handle raises.  The live side
  pays for what it touches.  Its first *effective* mutation after the freeze
  (a no-op write leaves the publication alone) retires that storage and
  takes back an earlier one whose frozen handle is gone — nobody can read it
  any more — and catches it up on the few writes it missed (each index key
  they touched shares the retired storage's bucket); a bucket is copied the
  first time a write lands on its key, and never again until the next
  freeze.  A commit that changes thirty rows of a 100k-row relation copies
  thirty-odd small lists, not 100k.  Only a cold start, or readers pinning
  the two previous epochs as well, falls back to copying the row set and
  each index's ``key -> bucket`` dict (C-level ``set()`` / ``dict()`` copies
  that allocate no bucket); ``storage_reclaims`` / ``storage_copies`` count
  which happened.  Memory: up to three key layers per relation (live and two
  standbys — the published epoch and the one before it), buckets shared.
  Freezing an untouched relation again returns the same handle, so indexes
  readers built on it survive.
* The contract that buys: a storage is reclaimed once its frozen handle is
  unreachable, so the set ``rows()`` returns and an iterator over a frozen
  handle are valid only while that handle (or the snapshot / result holding
  it) is referenced.  Probe buckets stay valid regardless: a taken-back
  storage owns none of them, so they are never written in place.
  This is what lets the serving layer (:mod:`repro.service`) hand consistent
  epochs to concurrent readers while writers keep maintaining the live view.
"""

from __future__ import annotations

import weakref
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .errors import SchemaError

Value = object
Row = Tuple[Value, ...]


def _extend_partly_shared(
    columns: Tuple[int, ...],
    index: Dict[object, List[Row]],
    owned: Set[object],
    fresh: Iterable[Row],
) -> None:
    """Index ``fresh`` rows where only the ``owned`` keys' buckets are writable.

    Any other bucket may still be shared with a frozen snapshot, so the first
    row landing on its key replaces it with a copy.
    """
    for row in fresh:
        key = row[columns[0]] if len(columns) == 1 else tuple(row[c] for c in columns)
        bucket = index.get(key)
        if bucket is not None and key in owned:
            bucket.append(row)
        else:
            index[key] = [row] if bucket is None else [*bucket, row]
            owned.add(key)


def _keys(columns: Tuple[int, ...], rows: Iterable[Row]) -> Set[object]:
    """The keys ``rows`` have in the index on ``columns`` (one column: the bare value)."""
    if len(columns) == 1:
        return {row[columns[0]] for row in rows}
    return {tuple(row[c] for c in columns) for row in rows}


def _drop_rows(columns: Tuple[int, ...], index: Dict[object, List[Row]], owned: Optional[Set[object]], gone: Set[Row]):
    """Filter the ``gone`` rows out of ``index``, one pass per bucket they touch.

    The filtered copy replaces the bucket, which a snapshot may share; the
    copy is this relation's own (``owned``, when tracked, learns its key).
    """
    for key in _keys(columns, gone):
        kept = [row for row in index[key] if row not in gone]
        if kept:
            index[key] = kept
            if owned is not None:
                owned.add(key)
        else:
            del index[key]


class _RowMembership:
    """A full-arity probe signature, answered from the row set.

    Offers the one method of an index dict the probe paths use —
    ``get(key, default)`` — so compiled kernels hoist it exactly as they
    hoist a real index's.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Set[Row]) -> None:
        self._rows = rows

    def get(self, key: Row, default: object = None) -> object:
        return [key] if key in self._rows else default


class _UnaryRowMembership(_RowMembership):
    """Arity 1: single-column keys are bare values, rows are 1-tuples."""

    __slots__ = ()

    def get(self, key: Value, default: object = None) -> object:
        row = (key,)
        return [row] if row in self._rows else default


class _Standby(NamedTuple):
    """A storage published earlier: free to take back once ``handle`` is dead."""

    handle: "weakref.ref[Relation]"  #: the frozen handle that reads it
    rows: Set[Row]
    indexes: Dict[Tuple[int, ...], Dict[object, List[Row]]]
    backlog: List[Tuple[bool, Iterable[Row]]]  #: effective writes since: ``(added, rows)``
    logged: int  #: the relation's ``_logged`` when it retired


class Relation:
    """A named, fixed-arity set of tuples with lazy per-column indexes."""

    #: class-level defaults so the hot constructors pay nothing for them;
    #: ``freeze`` and the post-freeze detach set the instance attributes
    _frozen = False
    #: the frozen handle currently sharing *all* of this relation's storage
    #: (set by ``freeze``, dropped by the first mutation after it)
    _snapshot: Optional["Relation"] = None
    #: ``columns -> keys whose bucket this relation may mutate in place``,
    #: kept from the post-freeze detach until the next ``freeze``; any other
    #: bucket of those indexes may still be shared with a snapshot.  ``None``
    #: when there is nothing to track: never frozen, cleared since, or frozen
    #: and not yet written (``_snapshot`` is set and everything is shared)
    _owned: Optional[Dict[Tuple[int, ...], Set[object]]] = None
    #: storages published earlier (oldest first), each kept current by a
    #: backlog of the writes since; see :meth:`_detach_for_mutation`
    _standbys: Sequence[_Standby] = ()
    #: rows written to backlogs so far (a standby's holds those since its ``logged``)
    _logged = 0
    #: post-freeze detaches that took a standby back / that had to copy
    storage_reclaims = 0
    storage_copies = 0

    def __init__(self, name: str, arity: int, rows: Optional[Iterable[Sequence[Value]]] = None) -> None:
        if arity < 0:
            raise SchemaError(f"relation {name} cannot have negative arity")
        self.name = name
        self.arity = arity
        self._rows: Set[Row] = set()
        #: ``columns -> key -> bucket``; single-column keys are stored unwrapped
        self._indexes: Dict[Tuple[int, ...], Dict[object, List[Row]]] = {}
        #: bumped on every *effective* mutation; lets observers (the serving
        #: layer's per-predicate cache invalidation) ask "did this relation
        #: change?" without diffing tuple sets
        self.version = 0
        if rows is not None:
            self.add_all(rows)

    # ------------------------------------------------------------------
    # snapshots (copy-on-write freeze)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """``True`` when this relation is an immutable snapshot handle."""
        return self._frozen

    def freeze(self) -> "Relation":
        """Publish an immutable snapshot of the current contents, in O(1).

        The snapshot shares this relation's row set, index dicts and index
        buckets; the sharing is copy-on-write on the *live* side (see
        :meth:`_detach_for_mutation`), so the snapshot keeps observing
        exactly the rows it was born with.  Mutating the snapshot itself
        raises :class:`SchemaError`.  Freezing an already-frozen relation
        returns it unchanged, and freezing a live relation that has not been
        written since its last freeze returns that freeze's handle — with
        whatever indexes readers have lazily built on it.
        """
        if self._frozen:
            return self
        if self._snapshot is not None:
            return self._snapshot
        snapshot = Relation.__new__(Relation)
        snapshot.name = self.name
        snapshot.arity = self.arity
        snapshot.version = self.version
        snapshot._rows = self._rows
        # own outer dict: lazy index builds on the snapshot must not race the
        # live relation's.  The per-index dicts and their buckets are shared;
        # the live side stops writing to them on detach
        snapshot._indexes = dict(self._indexes)
        snapshot._frozen = True
        self._snapshot = snapshot
        self._owned = None
        return snapshot

    def _detach_for_mutation(self) -> None:
        """Enforce frozen immutability / stop writing to storage a snapshot shares.

        The shared storage retires as a standby.  If an earlier standby's
        handle is dead, its row set and key dicts are taken back and brought
        up to date from its backlog: the detach costs the rows written since,
        plus one dict write per index key they touched.
        Otherwise (cold start, clients pinning old epochs) the row set and
        each index's ``key -> bucket`` dict are copied — flat C-level copies
        that allocate no bucket.  Either way every bucket stays shared until
        a write first lands on its key (``_owned`` records which keys have).
        """
        if self._frozen:
            raise SchemaError(
                f"relation {self.name} is a frozen snapshot and cannot be mutated"
            )
        standby = _Standby(weakref.ref(self._snapshot), self._rows, self._indexes, [], self._logged)
        standbys = [*self._standbys, standby]
        self._snapshot = None
        spare = next((s for s in standbys if s.handle() is None), None)
        if spare is None:
            # two: the published epoch, and the one before it a reader may still hold
            self._standbys = standbys[-2:]
            self._rows = set(self._rows)
            self._owned = {columns: set() for columns in self._indexes}
            self._indexes = {columns: dict(index) for columns, index in self._indexes.items()}
            self.storage_copies += 1
            return
        standbys.remove(spare)
        self._standbys = standbys
        self._rows, self._indexes = spare.rows, spare.indexes
        self.storage_reclaims += 1
        # catch up, un-logged (the other standbys' backlogs hold these writes):
        # the row set write by write, and each key a write touched takes the
        # bucket of the storage just retired, which holds them all (shared)
        touched: Set[Row] = set()
        for added, rows in spare.backlog:
            (self._rows.update if added else self._rows.difference_update)(rows)
            touched.update(rows)
        for columns, source in standby.indexes.items():
            index = self._indexes.get(columns)
            if index is None:  # registered since the spare retired
                self._indexes[columns] = dict(source)
                continue
            for key in _keys(columns, touched):
                bucket = source.get(key)
                if bucket is None:
                    index.pop(key, None)
                else:
                    index[key] = bucket
        self._owned = {columns: set() for columns in self._indexes}

    def _log(self, added: bool, rows: Collection[Row]) -> None:
        """Append an effective write to every standby's backlog."""
        for standby in self._standbys:
            standby.backlog.append((added, rows))
        self._logged += len(rows)
        if self._logged - self._standbys[0].logged > len(self._rows):
            # catching the oldest up would cost more than the copy it saves
            # (and a relation frozen once, then written forever, stays bounded)
            del self._standbys[0]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, row: Sequence[Value]) -> bool:
        """Insert a tuple; returns ``True`` when the tuple was new."""
        tupled = tuple(row)
        if len(tupled) != self.arity:
            raise SchemaError(
                f"relation {self.name} has arity {self.arity}, got tuple of length {len(tupled)}"
            )
        if tupled in self._rows:
            if self._frozen:
                self._detach_for_mutation()  # raises: frozen snapshots reject writes
            return False
        if self._frozen or self._snapshot is not None:
            self._detach_for_mutation()
        self._rows.add(tupled)
        self.version += 1
        if self._standbys:
            self._log(True, (tupled,))
        if self._owned is not None:
            self._extend_indexes((tupled,))
            return True
        for columns, index in self._indexes.items():
            if len(columns) == 1:
                key: object = tupled[columns[0]]
            else:
                key = tuple(tupled[c] for c in columns)
            index.setdefault(key, []).append(tupled)
        return True

    def add_all(self, rows: Iterable[Sequence[Value]]) -> int:
        """Insert many tuples; returns how many were new.

        Bulk fast path: the batch goes into the row set first and each
        registered index is extended once per call, instead of paying the
        per-row index walk of :meth:`add` — the difference between O(rows ×
        indexes) dict churn and one tight loop per index when loading an EDB
        or refilling a delta relation.
        """
        if self._frozen:
            self._detach_for_mutation()  # raises: frozen snapshots reject writes
        arity = self.arity
        stored = self._rows
        shared = self._snapshot is not None
        fresh: List[Row] = []
        append = fresh.append
        try:
            for row in rows:
                tupled = tuple(row)
                if len(tupled) != arity:
                    raise SchemaError(
                        f"relation {self.name} has arity {arity}, got tuple of length {len(tupled)}"
                    )
                if tupled not in stored:
                    if shared:  # only a batch with a new row stops sharing
                        self._detach_for_mutation()
                        stored, shared = self._rows, False
                    stored.add(tupled)
                    append(tupled)
        finally:
            # a mid-batch validation failure must still index the rows that
            # made it into the set, or lookups would silently miss them
            if fresh:
                self._extend_indexes(fresh)
                self.version += 1
                if self._standbys:
                    self._log(True, fresh)
        return len(fresh)

    def _extend_indexes(self, fresh: Iterable[Row]) -> None:
        """Append a batch of (new, validated) rows to every registered index."""
        owned_by = self._owned
        for columns, index in self._indexes.items():
            # (an index built after the detach has no ``_owned`` entry: every
            # bucket in it is this relation's own)
            if owned_by is not None and columns in owned_by:
                _extend_partly_shared(columns, index, owned_by[columns], fresh)
                continue
            setdefault = index.setdefault
            if len(columns) == 1:
                column = columns[0]
                for tupled in fresh:
                    setdefault(tupled[column], []).append(tupled)
            else:
                for tupled in fresh:
                    setdefault(tuple(tupled[c] for c in columns), []).append(tupled)

    @classmethod
    def from_valid_rows(cls, name: str, arity: int, rows: Set[Row]) -> "Relation":
        """Adopt a set of already-validated tuples without per-row checks.

        Engine fast path (the storage row codec and the query drivers use
        it): ``rows`` must be a set of fresh tuples of the right arity,
        and the caller must hand over ownership — the set is adopted, not
        copied.
        """
        relation = cls(name, arity)
        relation._rows = rows
        return relation

    def union_update(self, rows: Set[Row]) -> int:
        """Bulk set-union of already-validated tuples; returns how many were new.

        The engine fast path behind the fixpoint drivers: deltas and derived
        relations exchange *sets of rows that came out of this storage layer
        or a kernel projection*, so re-validating arity per row (as
        :meth:`add_all` must for arbitrary caller input) is wasted work.  The
        row set advances by one C-level set union; registered indexes are
        extended exactly as :meth:`add_all` does.
        """
        if self._frozen:
            self._detach_for_mutation()  # raises: frozen snapshots reject writes
        if not (self._indexes or self._standbys or self._snapshot is not None):
            # no indexes to maintain: skip materializing the fresh-row set
            # and let the C-level union count for us (the columnar executor
            # lands its whole fixpoint's derivations through here)
            before = len(self._rows)
            self._rows |= rows
            added = len(self._rows) - before
            if added:
                self.version += 1
            return added
        # (a backlog needs its own set: callers clear the one they passed)
        fresh = rows - self._rows
        if not fresh:
            return 0
        if self._snapshot is not None:
            self._detach_for_mutation()
        self._rows |= fresh
        self.version += 1
        self._extend_indexes(fresh)
        if self._standbys:
            self._log(True, fresh)
        return len(fresh)

    def discard(self, row: Sequence[Value]) -> bool:
        """Remove a tuple if present; returns ``True`` when it was (mirrors :meth:`add`)."""
        return self.discard_all((row,)) == 1

    def discard_all(self, rows: Iterable[Sequence[Value]]) -> int:
        """Remove many tuples; returns how many were present (mirrors ``add_all``).

        One row-set difference, one pass per index bucket touched, one backlog entry."""
        if self._frozen:
            self._detach_for_mutation()  # raises: frozen snapshots reject writes
        gone = self._rows.intersection(map(tuple, rows))
        if not gone:
            return 0
        if self._snapshot is not None:
            self._detach_for_mutation()
        self.version += 1
        self._rows -= gone
        owned_by = self._owned
        for columns, index in self._indexes.items():
            _drop_rows(columns, index, None if owned_by is None else owned_by.get(columns), gone)
        if self._standbys:
            self._log(False, gone)
        return len(gone)

    def clear(self) -> None:
        """Remove every tuple, keeping the registered index column-sets.

        The semi-naive engine double-buffers its delta relations: the old
        delta is cleared and refilled rather than reallocated, so the column
        combinations the joins probe stay registered and :meth:`add` maintains
        them incrementally instead of each iteration rebuilding from scratch.
        """
        if self._frozen:
            self._detach_for_mutation()  # raises: frozen snapshots reject writes
        if self._rows:
            self.version += 1
        if self._standbys:
            self._standbys = ()  # emptying one costs more than starting empty
        if self._snapshot is not None:
            # detach without copying contents that are about to be dropped;
            # the registered column-sets survive with fresh empty buckets
            self._rows = set()
            self._indexes = {columns: {} for columns in self._indexes}
            self._snapshot = None
            return
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        if self._owned is not None:
            self._owned = None  # nothing left that a snapshot could share

    def replace_rows(self, rows: Set[Row]) -> None:
        """:meth:`clear` then :meth:`union_update`, adopting ``rows`` instead of copying.

        For a scratch relation refilled every round (the Figure 9 schema's
        carry): validated tuples only, and registered indexes are rebuilt.
        """
        if self._frozen:
            self._detach_for_mutation()  # raises: frozen snapshots reject writes
        self._rows = rows
        self.version += 1
        if self._snapshot is not None or self._owned is not None:
            self._snapshot = self._owned = None  # nothing below is shared any more
            self._standbys = ()
        if self._indexes:
            self._indexes = {columns: {} for columns in self._indexes}
            self._extend_indexes(rows)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._rows

    def rows(self) -> Set[Row]:
        """The underlying tuple set (do not mutate)."""
        return self._rows

    def is_empty(self) -> bool:
        """``True`` when the relation has no tuples."""
        return not self._rows

    def copy(self) -> "Relation":
        """An independent copy with the same tuples and index registrations.

        The registered column-sets (and their buckets) are carried over, so a
        copy keeps serving the probe signatures the original had built up —
        previously they were silently dropped and every index had to be
        rebuilt from scratch on first probe after a copy.
        """
        clone = Relation(self.name, self.arity)
        clone.version = self.version
        clone._rows = set(self._rows)
        clone._indexes = {
            columns: {key: list(bucket) for key, bucket in index.items()}
            for columns, index in self._indexes.items()
        }
        return clone

    def column_values(self, column: int) -> Set[Value]:
        """The distinct values appearing in ``column``."""
        return {row[column] for row in self._rows}

    # ------------------------------------------------------------------
    # serialization (the durable storage layer's row codec)
    # ------------------------------------------------------------------
    def packed_rows(self, intern: Callable[[Value], int]) -> Tuple[int, bytes]:
        """``(row_count, packed)`` — the row set as struct-packed int codes.

        Every value is mapped through ``intern`` (a domain dictionary's
        encoder) and the resulting int rows are written as little-endian
        ``int64``s, ``arity`` per row, in sorted code order — so the bytes
        for a given (relation, dictionary) pair are deterministic, which
        makes snapshots diffable and the differential harness's
        byte-identity checks meaningful.  Works on frozen handles: reading
        rows never mutates.

        The codec itself lives in :mod:`repro.engine.packing` (shared with
        the columnar engine, imported lazily to keep this module free of
        engine dependencies at import time).
        """
        from ..engine.packing import pack_rows

        return pack_rows(self._rows, intern)

    @classmethod
    def from_packed_rows(
        cls,
        name: str,
        arity: int,
        count: int,
        packed: bytes,
        decode: Callable[[int], Value],
    ) -> "Relation":
        """Rebuild a relation from :meth:`packed_rows` output.

        ``decode`` maps codes back to stored values (the domain dictionary's
        decoder).  The zero-arity cases carry no bytes at all, so the row
        count disambiguates ``{}`` from ``{()}``.
        """
        from ..engine.packing import unpack_rows

        try:
            rows = unpack_rows(packed, arity, count, decode)
        except ValueError as exc:
            raise SchemaError(f"relation {name}: {exc}") from None
        return cls.from_valid_rows(name, arity, rows)

    # ------------------------------------------------------------------
    # indexed lookup
    # ------------------------------------------------------------------
    def _index_for(self, columns: Tuple[int, ...]) -> Union[Dict[object, List[Row]], _RowMembership]:
        index = self._indexes.get(columns)
        if index is None:
            if len(columns) == self.arity:
                # every column bound: membership, not a second copy of the rows
                if len(columns) == 1:
                    return _UnaryRowMembership(self._rows)
                return _RowMembership(self._rows)
            index = {}
            setdefault = index.setdefault
            if len(columns) == 1:
                column = columns[0]
                for row in self._rows:
                    setdefault(row[column], []).append(row)
            else:
                for row in self._rows:
                    setdefault(tuple(row[c] for c in columns), []).append(row)
            self._indexes[columns] = index
        return index

    def lookup(self, bindings: Mapping[int, Value]) -> List[Row]:
        """Tuples matching the given column bindings.

        ``bindings`` maps 0-based column numbers to required values.  An empty
        mapping returns every tuple (an *unrestricted lookup* in the paper's
        terminology); the instrumentation layer counts both cases.
        """
        if not bindings:
            return list(self._rows)
        columns = tuple(sorted(bindings))
        for column in columns:
            if column < 0 or column >= self.arity:
                raise SchemaError(
                    f"relation {self.name} has arity {self.arity}; column {column} out of range"
                )
        if len(columns) == 1:
            key: object = bindings[columns[0]]
        else:
            key = tuple(bindings[c] for c in columns)
        return list(self._index_for(columns).get(key, ()))

    def probe(self, columns: Tuple[int, ...], key: object) -> Sequence[Row]:
        """Tuples matching ``key`` on the (pre-sorted) ``columns``.

        The fast-path lookup used by compiled plans: the caller fixed the
        column set at compile time, so no per-call sorting or dict building
        happens here, and the matching bucket is returned without copying.
        For a single-column probe ``key`` is the bare value (single-column
        index keys are stored unwrapped); for multi-column probes it is the
        tuple of values in column order.  Callers must treat the result as
        read-only.
        """
        if columns and (columns[0] < 0 or columns[-1] >= self.arity):
            raise SchemaError(
                f"relation {self.name} has arity {self.arity}; columns {columns} out of range"
            )
        return self._index_for(columns).get(key, ())

    def project(self, columns: Sequence[int]) -> Set[Row]:
        """Projection onto the given columns (duplicates eliminated)."""
        return {tuple(row[c] for c in columns) for row in self._rows}

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return f"{self.name}/{self.arity}[{len(self._rows)} tuples]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self!s})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self.arity == other.arity and self._rows == other._rows

    def __hash__(self) -> int:  # relations are mutable; identity hash is intentional
        return id(self)
