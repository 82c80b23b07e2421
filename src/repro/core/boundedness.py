"""Uniform boundedness checks for the paper's decidable subclass.

Theorem 3.4 and the discussion after it restrict attention to recursions with
a single linear recursive rule and no repeated (nonrecursive) predicates; for
that subclass both the uniformly-bounded-recursion problem and the
recursively-redundant-predicate problem are decidable ([NS87], [Nau89a]), and
the paper's complete detection procedure is: remove redundant predicates,
check uniform boundedness, then apply Theorem 3.1.

Two checks are provided:

* :func:`is_uniformly_bounded_structural` — the structural criterion for the
  decidable subclass: the recursion is uniformly bounded exactly when *every*
  nonrecursive predicate of the recursive rule is recursively redundant
  (Theorem 3.3).  Intuitively, if every nonrecursive predicate contributes
  only boundedly many facts to any proof, proofs themselves have bounded
  shape and a bounded number of rule applications suffices.
* :func:`bounded_prefix_depth` — an empirical cross-check usable on any
  single-linear-rule recursion: find the first expansion string that is
  already contained (Lemma 2.1) in the union of the earlier strings.  For a
  linear rule, once string ``k`` folds into the earlier strings every deeper
  string does too (the folding composes with itself), so a hit certifies
  boundedness; tests use it to validate the structural criterion.
"""

from __future__ import annotations

from typing import List, Optional

from ..datalog.errors import ProgramError
from ..datalog.rules import Program
from ..cq.containment import union_contains
from ..expansion.generator import expand
from .redundancy import is_recursively_redundant


def is_uniformly_bounded_structural(program: Program, predicate: str) -> bool:
    """Structural uniform-boundedness test for the decidable subclass.

    Requires a single linear recursive rule without repeated nonrecursive
    predicates (a :class:`ProgramError` propagates otherwise, matching the
    scope for which the criterion is stated).
    """
    rule = program.linear_recursive_rule(predicate)
    for atom in rule.nonrecursive_atoms():
        if not is_recursively_redundant(program, predicate, atom.predicate):
            return False
    return True


def is_uniformly_unbounded_structural(program: Program, predicate: str) -> bool:
    """Negation of :func:`is_uniformly_bounded_structural` (Theorem 3.4's hypothesis)."""
    return not is_uniformly_bounded_structural(program, predicate)


def bounded_prefix_depth(
    program: Program,
    predicate: str,
    max_depth: int = 8,
) -> Optional[int]:
    """Empirical boundedness witness from the expansion.

    Returns the smallest recursion depth ``k ≥ 1`` such that every string
    produced with ``k`` recursive-rule applications is contained in the union
    of the strings with fewer applications, or ``None`` when no such depth
    ≤ ``max_depth`` exists.  A returned depth means the recursion is
    equivalent to the (nonrecursive) union of its first ``k`` strings.
    """
    strings = expand(program, predicate, max_depth)
    by_depth: List[List] = [[] for _ in range(max_depth + 1)]
    for string in strings:
        by_depth[string.recursion_depth()].append(string)
    covered: List = list(by_depth[0])
    for depth in range(1, max_depth + 1):
        if by_depth[depth] and all(union_contains(covered, string) for string in by_depth[depth]):
            return depth
        covered.extend(by_depth[depth])
    return None


def is_bounded_empirical(
    program: Program,
    predicate: str,
    max_depth: int = 8,
) -> bool:
    """``True`` when :func:`bounded_prefix_depth` finds a witness within ``max_depth``.

    A ``False`` answer is *not* a proof of unboundedness (the witness might
    simply lie deeper); use the structural criterion for the decidable
    subclass when a definite answer is needed.
    """
    return bounded_prefix_depth(program, predicate, max_depth) is not None
