"""Instrumented relational-algebra operators.

Figures 7 and 8 of the paper are written directly in relational algebra
(``carry := π1(σ$2=n0(b))``, ``carry := π2(carry ⋈ a)`` ...).  This module
provides the two operators those lines probe stored relations with — the
selection ``σ`` and the restricted semijoin against a ``carry`` — over either
:class:`~repro.datalog.relation.Relation` objects or plain Python sets of
tuples, recording every probe in an
:class:`~repro.engine.instrumentation.EvaluationStats` so the literal
algorithm transcriptions in :mod:`repro.core.algorithms` stay one line per
paper line.  Projection, union and difference are plain set expressions at
the call sites.
"""

from __future__ import annotations

from typing import Mapping, Optional, Set, Union

from ..datalog.relation import Relation, Row, Value
from .instrumentation import EvaluationStats

TupleSet = Set[Row]
RelationLike = Union[Relation, TupleSet]


def select(
    source: RelationLike,
    bindings: Mapping[int, Value],
    stats: Optional[EvaluationStats] = None,
) -> TupleSet:
    """``σ`` — tuples of ``source`` whose columns match ``bindings``.

    When ``source`` is a stored :class:`Relation`, the lookup goes through the
    relation's index and only matching tuples are counted as examined; a
    selection over a transient tuple set scans it.
    """
    if isinstance(source, Relation):
        matched = source.lookup(dict(bindings))
        if stats is not None:
            stats.record_lookup(len(matched), restricted=bool(bindings))
        return set(matched)
    result = {row for row in source if all(row[c] == v for c, v in bindings.items())}
    if stats is not None:
        stats.record_lookup(len(source), restricted=bool(bindings))
    return result


def semijoin(
    keys: Set[Value],
    source: RelationLike,
    column: int,
    stats: Optional[EvaluationStats] = None,
) -> TupleSet:
    """Tuples of ``source`` whose ``column`` value appears in ``keys``.

    This is the restricted lookup used by lines 5 of Figures 7 and 8: ask the
    stored relation only for tuples joining with the current ``carry``.
    """
    result: TupleSet = set()
    if isinstance(source, Relation):
        for key in keys:
            matches = source.lookup({column: key})
            if stats is not None:
                stats.record_lookup(len(matches), restricted=True)
            result.update(matches)
    else:
        for row in source:
            if row[column] in keys:
                result.add(row)
        if stats is not None:
            stats.record_lookup(len(source), restricted=True)
    if stats is not None:
        stats.record_produced(len(result))
    return result
