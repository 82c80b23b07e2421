"""The shared packed-row codec: one layout under storage and relations.

:mod:`repro.engine.packing` is the single implementation behind snapshot
files and :meth:`Relation.packed_rows`, so its invariants are pinned
directly: determinism (sorted, deduped), lossless round trips through both
the row view and the column view, the zero-arity ``count`` convention, and
size validation of foreign bytes.
"""

from __future__ import annotations

import random
import struct
from array import array

import pytest

from repro.datalog.errors import SchemaError
from repro.datalog.relation import Relation
from repro.engine.packing import (
    columns_from_packed,
    pack_rows,
    unpack_rows,
)


class TestPackRows:
    def test_round_trip_random(self):
        rng = random.Random(3)
        for arity in (1, 2, 3, 5):
            rows = {
                tuple(rng.randrange(-1000, 1000) for _ in range(arity))
                for _ in range(rng.randrange(0, 60))
            }
            count, packed = pack_rows(rows)
            assert count == len(rows)
            assert len(packed) == count * arity * 8
            assert unpack_rows(packed, arity, count) == rows

    def test_deterministic_and_deduplicating(self):
        rows_a = [(3, 1), (1, 2), (3, 1)]
        rows_b = [(1, 2), (3, 1)]
        assert pack_rows(rows_a) == pack_rows(rows_b)
        count, packed = pack_rows(rows_a)
        assert count == 2
        # sorted row order: (1, 2) before (3, 1), little-endian int64 codes
        assert packed == struct.pack("<4q", 1, 2, 3, 1)

    def test_intern_callback_encodes_values(self):
        mapping = {"a": 0, "b": 1}
        count, packed = pack_rows([("a", "b"), ("b", "a")], mapping.__getitem__)
        assert unpack_rows(packed, 2, count) == {(0, 1), (1, 0)}
        decoded = unpack_rows(packed, 2, count, decode="ab".__getitem__)
        assert decoded == {("a", "b"), ("b", "a")}

    def test_zero_arity_count_disambiguates(self):
        assert unpack_rows(b"", 0, 1) == {()}
        assert unpack_rows(b"", 0, 0) == set()


class TestColumnCodec:
    def test_columns_round_trip(self):
        rows = {(5, -2, 7), (1, 2, 3), (0, 0, 0)}
        count, packed = pack_rows(rows)
        columns = columns_from_packed(packed, 3, count)
        assert all(isinstance(column, array) for column in columns)
        assert set(zip(*columns)) == rows

    def test_columns_preserve_row_order(self):
        count, packed = pack_rows([(2, 20), (1, 10), (3, 30)])
        first, second = columns_from_packed(packed, 2, count)
        assert list(first) == [1, 2, 3]
        assert list(second) == [10, 20, 30]

    def test_empty_columns(self):
        assert columns_from_packed(b"", 2, 0) == [array("q"), array("q")]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            columns_from_packed(b"\x00" * 15, 2, 1)
        with pytest.raises(ValueError):
            columns_from_packed(b"\x00" * 16, 2, 2)


class TestRelationDelegation:
    def test_relation_codec_is_the_shared_codec(self):
        relation = Relation("r", 2, [(4, 5), (1, 2)])
        assert relation.packed_rows(None) == pack_rows(relation.rows())
        count, packed = relation.packed_rows(None)
        again = Relation.from_packed_rows("r", 2, count, packed, lambda code: code)
        assert again.rows() == relation.rows()

    def test_relation_wraps_codec_errors_as_schema_errors(self):
        with pytest.raises(SchemaError):
            Relation.from_packed_rows("r", 2, 3, b"\x00" * 8, lambda code: code)
