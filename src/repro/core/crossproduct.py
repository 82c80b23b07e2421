"""The cross-product ("any linear recursion is a transitive closure") rewriting.

Section 4 closes with the observation of Jagadish, Agrawal and Ness [JAN87]
that any linear recursion can be made to *look* one-sided: bundle all the
nonrecursive predicates of the recursive rule into a new predicate whose
arguments are the head variables plus the recursive-call variables.  For the
canonical two-sided recursion this gives

    ac(X, Y, W, Z) :- a(X, W), c(Z, Y).
    t(X, Y) :- ac(X, Y, W, Z), t(W, Z).
    t(X, Y) :- b(X, Y).

which Theorem 3.1 classifies as one-sided — but the new relation ``ac`` is the
cross product of ``a`` and ``c``, so evaluating a selection through it
examines the whole ``c`` relation and violates Property 3.  The E8 benchmark
quantifies that violation; this module performs the rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import ProgramError
from ..datalog.relation import Relation
from ..datalog.rules import Program, Rule
from ..datalog.terms import Variable, is_variable
from ..engine.compile import compile_rule
from ..engine.instrumentation import EvaluationStats


@dataclass
class CrossProductRewriting:
    """The result of the [JAN87]-style rewriting."""

    #: the original program
    original: Program
    #: the rewritten program (combined predicate + simplified recursive rule)
    rewritten: Program
    #: the rule defining the combined predicate (the potential cross product)
    combined_rule: Rule
    #: name of the combined predicate
    combined_predicate: str
    #: ``True`` when the nonrecursive body atoms fall into several variable-disjoint
    #: groups, i.e. materializing the combined predicate genuinely requires a
    #: cross product that the original rules never asked for
    introduces_cross_product: bool


def cross_product_rewriting(
    program: Program, predicate: str, combined_name: Optional[str] = None
) -> CrossProductRewriting:
    """Rewrite the recursion so its recursive rule has a single nonrecursive atom.

    The combined predicate's argument list is: the head variables, followed by
    the recursive-call variables that are not already head variables (in call
    order).  The recursive rule becomes
    ``t(head) :- combined(head, links), t(call)``, which is syntactically
    one-sided regardless of what the original recursion was.
    """
    rule = program.linear_recursive_rule(predicate)
    recursive_atom = rule.recursive_atom()
    nonrecursive = rule.nonrecursive_atoms()
    if not nonrecursive:
        raise ProgramError(f"the recursive rule of {predicate} has no nonrecursive atoms to combine")

    head_vars = [arg for arg in rule.head.args if is_variable(arg)]
    call_vars: List[Variable] = []
    for arg in recursive_atom.args:
        if is_variable(arg) and arg not in head_vars and arg not in call_vars:
            call_vars.append(arg)

    combined_name = combined_name or "_".join(
        sorted({atom.predicate for atom in nonrecursive})
    ) + "_combined"
    if combined_name in program.predicates():
        combined_name = f"{combined_name}_x"

    combined_args = tuple(head_vars + call_vars)
    combined_head = Atom(combined_name, combined_args)
    combined_rule = Rule(combined_head, tuple(nonrecursive))

    new_recursive = Rule(rule.head, (Atom(combined_name, combined_args), recursive_atom))
    rewritten = program.replace_rule(rule, new_recursive).with_rules([combined_rule])

    return CrossProductRewriting(
        original=program,
        rewritten=rewritten,
        combined_rule=combined_rule,
        combined_predicate=combined_name,
        introduces_cross_product=_is_cross_product(nonrecursive),
    )


def _is_cross_product(atoms: List[Atom]) -> bool:
    """``True`` when the atoms split into at least two variable-disjoint groups."""
    if len(atoms) < 2:
        return False
    groups: List[Set[Variable]] = []
    for atom in atoms:
        variables = atom.variable_set()
        merged = None
        for group in groups:
            if group & variables:
                group |= variables
                merged = group
                break
        if merged is None:
            groups.append(set(variables))
    # merge transitively
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups[j]
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return len(groups) > 1


def materialize_combined_relation(
    rewriting: CrossProductRewriting,
    database: Database,
    stats: Optional[EvaluationStats] = None,
) -> Relation:
    """Materialize the combined predicate over the database.

    This is the step that pays the cross-product cost: every tuple produced is
    counted, and the lookups on the constituent relations are unrestricted by
    construction (there is no selection to push into them).
    """
    stats = stats if stats is not None else EvaluationStats()
    relations = {relation.name: relation for relation in database.relations()}
    plan = compile_rule(rewriting.combined_rule, relations)
    if plan.producible:
        rows = plan.evaluate(relations, stats)
    else:
        # a head variable that no nonrecursive atom binds: the join still runs
        # (and is counted), but it grounds no tuple
        plan.join(relations, stats)
        rows = set()
    relation = Relation(rewriting.combined_predicate, rewriting.combined_rule.head.arity, rows)
    stats.record_produced(len(rows))
    return relation
