"""The storage dictionary — dense int codes for persisted values.

The fixpoint engines evaluate directly over the stored values (``str`` caches
its hash and tuple equality is identity-first, so re-building every relation
as int rows on the way in, and back as value rows on the way out, cost more
than the fixpoint it wrapped; see README, *Performance architecture*).  What
remains of the value domain is what the durable storage layer
(:mod:`repro.storage`) persists: a :class:`Domain` interns each distinct value
to a dense ``int`` once, rows are written as packed code matrices, a WAL
record carries exactly the values its batch interned and a snapshot carries
the whole dictionary.

Interning preserves set semantics exactly: two values receive the same code
precisely when Python equality (the same equality the plain tuple-set storage
uses) considers them equal, and the decoder returns the first-seen
representative, just as ``set.add`` keeps the first-inserted element.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..datalog.relation import Value

__all__ = ["Domain"]


class Domain:
    """A bidirectional value ↔ dense-int interner."""

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: Dict[Value, int] = {}
        self._values: List[Value] = []

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def intern(self, value: Value) -> int:
        """The dense code for ``value``, allocating one on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, code: int) -> Value:
        """The original value behind ``code``."""
        return self._values[code]

    # ------------------------------------------------------------------
    # persistence (the durable storage layer's dictionary hooks)
    # ------------------------------------------------------------------
    def export_values(self, start: int = 0) -> List[Value]:
        """The interned values with codes ``>= start``, in code order.

        The storage layer persists the dictionary incrementally: a WAL
        record carries exactly the values its batch interned (``start`` =
        the dictionary size before encoding the batch), and a snapshot
        carries the whole dictionary (``start = 0``).
        """
        return self._values[start:]

    def extend_values(self, values: Iterable[Value]) -> None:
        """Re-register persisted values in code order (the recovery path).

        Each value receives the next dense code, exactly as the original
        :meth:`intern` calls did; a value that is already interned would
        shift every later code, so it raises :class:`ValueError` — recovery
        treats that as a corrupt dictionary, not a soft condition.
        """
        for value in values:
            code = len(self._values)
            existing = self._codes.setdefault(value, code)
            if existing != code:
                raise ValueError(
                    f"domain value {value!r} is already interned at code {existing}"
                )
            self._values.append(value)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({len(self._values)} values)"
