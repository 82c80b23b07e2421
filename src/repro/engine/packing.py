"""Row packing — the one codec behind snapshots and the WAL.

Two consumers share the "rows as little-endian ``int64`` codes" layout:

* the durable storage layer (:mod:`repro.storage.format` /
  :mod:`repro.storage.snapshot`) persists every relation as a packed code
  matrix; and
* :meth:`repro.datalog.relation.Relation.packed_rows` /
  :meth:`~repro.datalog.relation.Relation.from_packed_rows` are the
  storage-facing row codec of the relation class.

This module is the single implementation.  The row layout is unchanged from
the earlier per-module copies: ``arity`` codes per row, rows in sorted code
order, so the bytes for a given (relation, dictionary) pair stay
deterministic and snapshot files remain diffable and backward compatible.

Decoding goes through columns: :func:`columns_from_packed` turns a packed
matrix into per-column ``array('q')`` vectors with ``frombytes`` + extended
slicing — no per-tuple Python loop — and :func:`unpack_rows` re-zips those
columns into a row set, so tuple construction happens inside ``zip`` rather
than in bytecode.

The module deliberately imports nothing from the rest of the package, so the
storage layer and the relation class can both delegate to it without import
cycles.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

Row = Tuple[object, ...]

__all__ = [
    "columns_from_packed",
    "pack_rows",
    "unpack_rows",
]


def pack_rows(
    rows: Iterable[Sequence[object]],
    intern: Optional[Callable[[object], int]] = None,
) -> Tuple[int, bytes]:
    """``(row_count, packed)`` — rows as sorted little-endian ``int64`` codes.

    Every value is mapped through ``intern`` (a domain dictionary's encoder;
    omit it when the rows already carry int codes), duplicates are
    eliminated, and the coded rows are written in sorted order — so the bytes
    for a given (rows, dictionary) pair are deterministic, which makes
    snapshots diffable and byte-identity checks meaningful.
    """
    if intern is None:
        coded = sorted({tuple(row) for row in rows})
    else:
        coded = sorted({tuple(intern(value) for value in row) for row in rows})
    flat = array("q", (code for row in coded for code in row))
    return len(coded), _as_little_endian_bytes(flat)


def columns_from_packed(packed: bytes, arity: int, count: int) -> List[array]:
    """Per-column ``array('q')`` vectors of a packed code matrix.

    The bulk decode path of :func:`unpack_rows`: one ``frombytes`` plus ``arity`` extended
    slices, all at C speed — no per-tuple Python loop.  Row order is
    preserved (column ``j``'s ``i``-th entry belongs to row ``i``).
    """
    expected = count * arity * 8
    if len(packed) != expected:
        raise ValueError(f"packed rows have {len(packed)} bytes, expected {expected}")
    flat = array("q")
    flat.frombytes(packed)
    if _BIG_ENDIAN:
        flat.byteswap()
    return [flat[j::arity] for j in range(arity)]


def unpack_rows(
    packed: bytes,
    arity: int,
    count: int,
    decode: Optional[Callable[[int], object]] = None,
) -> Set[Row]:
    """The row set behind a packed code matrix.

    ``decode`` maps codes back to stored values (omit it to keep raw int
    rows).  Tuples are built by ``zip`` over the column vectors and values
    are decoded with ``map``, so no per-value bytecode loop runs.  The
    zero-arity matrices carry no bytes, so ``count`` disambiguates ``{}``
    from ``{()}``.
    """
    if arity == 0:
        return {()} if count else set()
    columns = columns_from_packed(packed, arity, count)
    if decode is not None:
        columns = [list(map(decode, column)) for column in columns]
    return set(zip(*columns))


_BIG_ENDIAN = array("q", [1]).tobytes() != (1).to_bytes(8, "little", signed=True)


def _as_little_endian_bytes(flat: array) -> bytes:
    if _BIG_ENDIAN:
        swapped = array("q", flat)
        swapped.byteswap()
        return swapped.tobytes()
    return flat.tobytes()
