"""The canonical programs used by the paper (and by the benchmark suite).

Every recursion the paper discusses as an example is defined here once, so
tests, examples and benchmarks all exercise exactly the same rules:

====================  =====================================================
factory               paper reference
====================  =====================================================
transitive_closure    Examples 2.1 / 2.2, the canonical one-sided recursion
same_generation       Example 3.3, the canonical two-sided recursion (the
                      "same generation" problem)
example_3_4           Example 3.4 / Figure 5, one-sided with a disconnected
                      ``d(Z)`` instance (rule reconstructed)
example_3_5           Example 3.5 / Figure 6, superficially regular but
                      two-sided (cycle of weight 2)
canonical_two_sided   Section 4's canonical two-sided recursion
                      ``t(X,Y) :- a(X,W), t(W,Z), c(Z,Y)``
buys_unoptimized      Section 3's buys/knows/cheap recursion (two-sided
                      before redundancy removal)
buys_optimized        the same recursion after removing ``cheap(Y)``
tc_with_permissions   Example 4.1, "transitive closure with permissions"
                      (rule reconstructed)
appendix_a_p          Example A.1's bounded program P
bounded_guard_tc      a uniformly bounded guard recursion (witness depth 1);
                      exercises the Theorem 3.3 → unfolding rewrite
bounded_swap          a uniformly bounded swap recursion (witness depth 2);
                      the E14 unfolding benchmark's workload
unbounded_p           an unbounded single-IDB program used as the negative
                      case for the Appendix A reduction
====================  =====================================================
"""

from __future__ import annotations

from ..datalog.parser import parse_program
from ..datalog.rules import Program


def transitive_closure(edge: str = "a", base: str = "b", predicate: str = "t") -> Program:
    """The canonical one-sided recursion (Example 2.1)."""
    return parse_program(
        f"""
        {predicate}(X, Y) :- {edge}(X, Z), {predicate}(Z, Y).
        {predicate}(X, Y) :- {base}(X, Y).
        """
    )


def same_generation(parent: str = "p", base: str = "sg0", predicate: str = "sg") -> Program:
    """The same-generation problem (Example 3.3), the canonical two-sided recursion.

    The paper writes both parent atoms with the predicate ``p``; by default we
    do the same (the rule then has a repeated nonrecursive predicate, exactly
    as in the paper).
    """
    return parse_program(
        f"""
        {predicate}(X, Y) :- {parent}(X, W), {parent}(Y, Z), {predicate}(W, Z).
        {predicate}(X, Y) :- {base}(X, Y).
        """
    )


def same_generation_distinct_parents(
    up: str = "up", down: str = "down", base: str = "flat", predicate: str = "sg"
) -> Program:
    """Same-generation with distinct up/down predicates (no repeated predicates).

    This variant satisfies the "no repeated nonrecursive predicates"
    hypothesis of Theorems 3.3/3.4 while remaining two-sided, so the pipeline
    benchmarks can exercise the complete decision procedure on it.
    """
    return parse_program(
        f"""
        {predicate}(X, Y) :- {up}(X, W), {down}(Y, Z), {predicate}(W, Z).
        {predicate}(X, Y) :- {base}(X, Y).
        """
    )


def example_3_4() -> Program:
    """Example 3.4 / Figure 5 (reconstructed rule; one-sided, k = 1, c = 1).

    The expansion contains a ``d``-instance disconnected from the growing
    ``e`` chain, which Section 4 uses to illustrate the Property 3 exception.
    """
    return parse_program(
        """
        t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
        t(X, Y, Z) :- t0(X, Y, Z).
        """
    )


def example_3_5() -> Program:
    """Example 3.5 / Figure 6: superficially regular, but two-sided (cycle weight 2)."""
    return parse_program(
        """
        t(X, Y) :- e(X, W), t(Y, W).
        t(X, Y) :- t0(X, Y).
        """
    )


def canonical_two_sided(
    up: str = "a", base: str = "b", down: str = "c", predicate: str = "t"
) -> Program:
    """Section 4's canonical two-sided recursion ``t(X,Y) :- a(X,W), t(W,Z), c(Z,Y)``."""
    return parse_program(
        f"""
        {predicate}(X, Y) :- {up}(X, W), {predicate}(W, Z), {down}(Z, Y).
        {predicate}(X, Y) :- {base}(X, Y).
        """
    )


def buys_unoptimized() -> Program:
    """Section 3's buys recursion before optimization (two-sided)."""
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y), cheap(Y).
        buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
        """
    )


def buys_optimized() -> Program:
    """The buys recursion after removing the recursively redundant ``cheap(Y)``."""
    return parse_program(
        """
        buys(X, Y) :- likes(X, Y), cheap(Y).
        buys(X, Y) :- knows(X, W), buys(W, Y).
        """
    )


def tc_with_permissions() -> Program:
    """Example 4.1: transitive closure with permissions (reconstructed rule).

    One-sided, but the permission predicate mentions both distinguished
    variables, which is why no obvious arity-reducing evaluation exists.
    """
    return parse_program(
        """
        t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
        t(X, Y) :- b(X, Y).
        """
    )


def bounded_guard_tc() -> Program:
    """A uniformly bounded "guarded" recursion: the recursive rule derives nothing.

    ``a(X, Y)`` mentions only distinguished variables, so it is recursively
    redundant (Theorem 3.3) and the recursion is uniformly bounded with
    witness depth 1 — the relation is exactly ``b``.  The unfolding pass
    rewrites it to the single exit rule.
    """
    return parse_program(
        """
        t(X, Y) :- a(X, Y), t(X, Y).
        t(X, Y) :- b(X, Y).
        """
    )


def bounded_swap() -> Program:
    """A uniformly bounded recursion with witness depth 2 (the "swap" family).

    The recursive call swaps the distinguished variables, so depth-2 strings
    fold into depth-0 strings and the recursion equals
    ``b(X, Y) ∪ (a(X, Y) ∧ b(Y, X))``.  Semi-naive evaluation still iterates
    over the data; the unfolding pass reduces it to two nonrecursive rules,
    which is what the E14 benchmark measures.
    """
    return parse_program(
        """
        t(X, Y) :- a(X, Y), t(Y, X).
        t(X, Y) :- b(X, Y).
        """
    )


def appendix_a_p() -> Program:
    """Example A.1's program P: bounded (the recursive rule derives nothing new)."""
    return parse_program(
        """
        p(X1, X2) :- c(X1), p(X1, X2).
        p(X1, X2) :- c(X1), p0(X1, X2).
        """
    )


def unbounded_p() -> Program:
    """An unbounded linear program over a single binary IDB predicate.

    Used as the negative case of the Appendix A reduction experiments: the
    reduction applied to this program yields a Q with no one-sided equivalent.
    """
    return parse_program(
        """
        p(X1, X2) :- r(X1, W), p(W, X2).
        p(X1, X2) :- p0(X1, X2).
        """
    )


def nonlinear_tc() -> Program:
    """The nonlinear (doubling) transitive closure.

    Outside the paper's single-linear-rule scope; used by tests to confirm the
    detection machinery rejects it cleanly rather than misclassifying it.
    """
    return parse_program(
        """
        t(X, Y) :- t(X, Z), t(Z, Y).
        t(X, Y) :- b(X, Y).
        """
    )


ALL_CANONICAL = {
    "transitive_closure": transitive_closure,
    "same_generation": same_generation,
    "same_generation_distinct_parents": same_generation_distinct_parents,
    "example_3_4": example_3_4,
    "example_3_5": example_3_5,
    "canonical_two_sided": canonical_two_sided,
    "buys_unoptimized": buys_unoptimized,
    "buys_optimized": buys_optimized,
    "tc_with_permissions": tc_with_permissions,
    "appendix_a_p": appendix_a_p,
    "bounded_guard_tc": bounded_guard_tc,
    "bounded_swap": bounded_swap,
    "unbounded_p": unbounded_p,
}
"""Name → factory map over every canonical program (handy for parametrised tests)."""
