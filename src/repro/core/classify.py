"""Detection of one-sided (and k-sided) recursions — Theorem 3.1.

A single-linear-rule recursion is **one-sided** exactly when its full A/V
graph has

1. exactly one connected component containing a cycle of nonzero weight, and
2. that component contains a cycle of weight 1.

More generally the number of components with nonzero-weight cycles is the
number of unbounded connected sets the expansion develops (Lemma 3.1), i.e.
the recursion's *sidedness* in the sense of Definition 3.3 — with the caveat
that a component whose minimal cycle weight is ``w > 1`` spawns ``w`` distinct
unbounded connected sets (the instances produced on iterations ``i`` and
``i+1`` fall in different sets, as the proof of Theorem 3.1 observes).
:func:`classify` reports both the raw component data and the derived counts so
that callers (and the E1 benchmark) can see *why* a recursion was classified
the way it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..datalog.errors import ProgramError
from ..datalog.rules import Program, Rule
from ..avgraph.build import AVGraph, build_full_av_graph
from ..avgraph.cycles import ComponentAnalysis, analyze_components


@dataclass
class SidednessReport:
    """The outcome of the Theorem 3.1 analysis for one recursive predicate."""

    predicate: str
    rule: Rule
    graph: AVGraph
    components: List[ComponentAnalysis] = field(default_factory=list)

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @property
    def nonzero_cycle_components(self) -> List[ComponentAnalysis]:
        """Components with a cycle of nonzero weight (the "sides")."""
        return [c for c in self.components if c.has_nonzero_weight_cycle]

    @property
    def is_one_sided(self) -> bool:
        """Theorem 3.1: exactly one nonzero-cycle component, with a weight-1 cycle."""
        sides = self.nonzero_cycle_components
        return len(sides) == 1 and sides[0].has_weight_one_cycle

    @property
    def is_bounded_looking(self) -> bool:
        """``True`` when no component has a nonzero-weight cycle.

        Such a recursion produces only bounded connected sets; Appendix B's
        argument (via [Nau89a]) then makes it uniformly bounded.
        """
        return not self.nonzero_cycle_components

    @property
    def sidedness(self) -> int:
        """The number of unbounded connected sets the expansion develops.

        Each component with cycle gcd ``g ≥ 1`` contributes ``g`` unbounded
        connected sets (for ``g = 1`` the whole component feeds a single set;
        for ``g = 2``, as in Example 3.5, odd and even iterations feed two
        disjoint sets, and so on).  A result of 0 means "bounded".
        """
        return sum(component.cycle_gcd for component in self.nonzero_cycle_components)

    @property
    def cycle_weights(self) -> List[int]:
        """The cycle-weight gcds of the nonzero-cycle components (sorted)."""
        return sorted(component.cycle_gcd for component in self.nonzero_cycle_components)

    def reason(self) -> str:
        """A one-line human-readable explanation of the classification."""
        sides = self.nonzero_cycle_components
        if not sides:
            return "no component of the full A/V graph has a nonzero-weight cycle (bounded)"
        if len(sides) > 1:
            return (
                f"{len(sides)} components have nonzero-weight cycles "
                f"(cycle weights {self.cycle_weights}); a one-sided recursion allows only one"
            )
        component = sides[0]
        if component.has_weight_one_cycle:
            return "exactly one component has a nonzero-weight cycle, and it has a weight-1 cycle"
        return (
            "the single nonzero-cycle component has minimal cycle weight "
            f"{component.cycle_gcd} (> 1), so iterations split across several unbounded sets"
        )

    def __str__(self) -> str:
        verdict = "one-sided" if self.is_one_sided else (
            "bounded" if self.is_bounded_looking else f"{self.sidedness}-sided"
        )
        return f"{self.predicate}: {verdict} — {self.reason()}"


def classify(program: Program, predicate: str) -> SidednessReport:
    """Run the Theorem 3.1 analysis for ``predicate``.

    Requires the program to define ``predicate`` by a single linear recursive
    rule (plus exit rules); raises :class:`ProgramError` otherwise, because
    Theorem 3.1 is only stated for that shape.
    """
    if not program.is_single_linear_recursion(predicate):
        raise ProgramError(
            f"Theorem 3.1 applies to definitions with a single linear recursive rule; "
            f"{predicate} does not have that shape"
        )
    rule = program.linear_recursive_rule(predicate)
    graph = build_full_av_graph(rule)
    components = analyze_components(graph)
    return SidednessReport(predicate=predicate, rule=rule, graph=graph, components=components)


def is_one_sided(program: Program, predicate: str) -> bool:
    """Theorem 3.1 as a predicate: is the recursion one-sided?"""
    return classify(program, predicate).is_one_sided


def structural_sidedness(program: Program, predicate: str) -> int:
    """The number of unbounded connected sets predicted by the full A/V graph.

    0 means the recursion produces only bounded connected sets; 1 means
    one-sided; k ≥ 2 means k-sided.
    """
    return classify(program, predicate).sidedness


def one_sided_component(program: Program, predicate: str) -> Optional[ComponentAnalysis]:
    """The unique nonzero-cycle component of a one-sided recursion, if any."""
    report = classify(program, predicate)
    if not report.is_one_sided:
        return None
    return report.nonzero_cycle_components[0]


def selection_covers_unbounded_sides(
    program: Program, predicate: str, bound_columns: Set[int]
) -> bool:
    """Does a selection place a constant on every unbounded side of the recursion?

    The paper's conclusion (Section 5) observes that even a two-sided recursion
    such as same generation can be evaluated with "essentially the general
    schema for evaluating single selection queries on one-sided recursions"
    when *each* unbounded connected set of the expansion contains a selection
    constant — e.g. the query ``sg(john, june)?``.

    Structurally: every nonzero-cycle component of the full A/V graph must
    contain the variable node of at least one bound head column.  A many-sided
    recursion qualifies exactly when the bound columns "cover" all the sides,
    which is what lets :func:`repro.engine.query.plan_query` fall back to the
    Figure 9 schema instead of magic sets for such queries.
    """
    report = classify(program, predicate)
    if not report.nonzero_cycle_components:
        return True  # only bounded connected sets; any evaluation is cheap
    if not bound_columns:
        return False
    head_vars = report.rule.head.args
    bound_variables = {
        head_vars[column]
        for column in bound_columns
        if 0 <= column < len(head_vars)
    }
    for component in report.nonzero_cycle_components:
        if not any(component.contains_variable(variable) for variable in bound_variables
                   if hasattr(variable, "name")):
            return False
    return True
