"""Literal transcriptions of the paper's evaluation algorithms (Figures 7 and 8).

Both algorithms evaluate single-column selections on the *canonical one-sided
recursion* (the transitive closure)

    t(X, Y) :- a(X, W), t(W, Y).
    t(X, Y) :- b(X, Y).

* Figure 7 (Aho–Ullman [AU79]) answers ``t(X, n0)`` — the selection column is
  the one whose variable appears in the same position in the head and in the
  recursive body predicate, so the constant reaches the exit rule and the
  strings are evaluated right to left.
* Figure 8 (Henschen–Naqvi [HN84]) answers ``t(n0, Y)`` — the constant sits at
  the head end and the strings are evaluated left to right.

The line numbering of the code below matches the line numbering of the
figures; ``carry``, ``seen`` and ``ans`` are the unary relations of the paper
and the relational operators come from :mod:`repro.engine.algebra`, so every
lookup the algorithms perform is counted.  The generic compiled schema of
Figure 9 lives in :mod:`repro.core.schema`; these transcriptions exist so the
canonical case can be benchmarked and tested in exactly the paper's terms.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..datalog.database import Database
from ..datalog.relation import Value
from ..engine import algebra
from ..engine.instrumentation import EvaluationStats


def aho_ullman_selection(
    database: Database,
    constant: Value,
    edge_predicate: str = "a",
    exit_predicate: str = "b",
    stats: Optional[EvaluationStats] = None,
) -> Tuple[Set[Value], EvaluationStats]:
    """Figure 7: evaluate ``t(X, n0)`` on the canonical one-sided recursion.

    Returns the set of values ``x`` with ``t(x, n0)`` plus the evaluation
    statistics.  ``edge_predicate`` and ``exit_predicate`` name the relations
    playing the roles of ``a`` and ``b``.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    a = database.relation_or_empty(edge_predicate, 2)
    b = database.relation_or_empty(exit_predicate, 2)

    # 1) carry := π1(σ$2=n0(b));
    carry = {row[0] for row in algebra.select(b, {1: constant}, stats)}
    # 2) seen := carry;
    seen = set(carry)
    # 3) ans := empty;
    ans: Set[Value] = set()
    stats.record_state(len(seen), len(seen))
    # 4) while carry not empty do
    while carry:
        stats.record_iteration()
        # 5) carry := π1(a ⋈ $2=$1 carry);
        carry = {row[0] for row in algebra.semijoin(carry, a, 1, stats)}
        # 6) carry := carry - seen;
        carry = carry - seen
        # 7) seen := seen ∪ carry;
        seen = seen | carry
        stats.record_state(len(seen) + len(carry), len(seen) + len(carry))
    # 8) endwhile;
    # 9) ans := seen
    ans = seen
    stats.record_produced(len(ans))
    stats.extra["carry_arity"] = 1
    stats.stop_timer()
    return ans, stats


def henschen_naqvi_selection(
    database: Database,
    constant: Value,
    edge_predicate: str = "a",
    exit_predicate: str = "b",
    stats: Optional[EvaluationStats] = None,
) -> Tuple[Set[Value], EvaluationStats]:
    """Figure 8: evaluate ``t(n0, Y)`` on the canonical one-sided recursion.

    Returns the set of values ``y`` with ``t(n0, y)`` plus the evaluation
    statistics.
    """
    stats = stats if stats is not None else EvaluationStats()
    stats.start_timer()
    a = database.relation_or_empty(edge_predicate, 2)
    b = database.relation_or_empty(exit_predicate, 2)

    # 1) carry := π2(σ$1=n0(a));
    carry = {row[1] for row in algebra.select(a, {0: constant}, stats)}
    # 2) seen := carry;
    seen = set(carry)
    # 3) ans := π2(σ$1=n0(b));
    ans = {row[1] for row in algebra.select(b, {0: constant}, stats)}
    stats.record_state(len(seen), len(seen))
    # 4) while carry not empty do
    while carry:
        stats.record_iteration()
        # 5) carry := π2(carry ⋈ $1=$1 a);
        carry = {row[1] for row in algebra.semijoin(carry, a, 0, stats)}
        # 6) carry := carry - seen;
        carry = carry - seen
        # 7) seen := seen ∪ carry;
        seen = seen | carry
        stats.record_state(len(seen) + len(carry), len(seen) + len(carry))
    # 8) endwhile;
    # 9) ans := ans ∪ π2(seen ⋈ $1=$1 b);
    ans = ans | {row[1] for row in algebra.semijoin(seen, b, 0, stats)}
    stats.record_produced(len(ans))
    stats.extra["carry_arity"] = 1
    stats.stop_timer()
    return ans, stats
