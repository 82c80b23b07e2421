"""Rules and programs.

A *rule* is a function-free Horn clause ``head :- body``.  A *program* is a
finite set of rules plus (implicitly) the extensional database.  Following
Section 2 of the paper, predicates split into

* **IDB predicates** — appear in the head of at least one rule, and
* **EDB predicates** — appear in no head and are defined by their extent.

Most of the paper restricts attention to definitions consisting of **one
linear recursive rule** and **one nonrecursive (exit) rule** for the predicate
of interest; :class:`Program` exposes the helpers (``linear_recursive_rule``,
``exit_rules``, ``is_single_linear_recursion``) the detection and evaluation
code needs to check and exploit that shape, while still representing fully
general positive Datalog programs (needed for the generalized expansion of
Appendix A, the magic-sets baseline and the reduction of Theorem 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, atoms_variables
from .errors import ProgramError, SchemaError
from .terms import Variable, is_variable


@dataclass(frozen=True)
class Rule:
    """A Horn clause ``head :- body_1, ..., body_n``.

    A rule with an empty body is a fact.
    """

    head: Atom
    body: Tuple[Atom, ...] = ()

    @staticmethod
    def of(head: Atom, *body: Atom) -> "Rule":
        """Convenience constructor: ``Rule.of(head, b1, b2, ...)``."""
        return Rule(head, tuple(body))

    # ------------------------------------------------------------------
    # shape queries
    # ------------------------------------------------------------------
    @property
    def is_fact(self) -> bool:
        """``True`` for a bodiless ground rule."""
        return not self.body and self.head.is_ground()

    def body_predicates(self) -> List[str]:
        """Predicate names occurring in the body, in order, with duplicates."""
        return [atom.predicate for atom in self.body]

    def predicates(self) -> Set[str]:
        """All predicate names mentioned by the rule."""
        return {self.head.predicate} | {atom.predicate for atom in self.body}

    def variables(self) -> Set[Variable]:
        """All variables of the rule (head and body)."""
        return self.head.variable_set() | atoms_variables(self.body)

    def head_variables(self) -> List[Variable]:
        """The distinguished variables, in head-argument order."""
        return [arg for arg in self.head.args if is_variable(arg)]

    def nondistinguished_variables(self) -> Set[Variable]:
        """Variables appearing in the body but not in the head."""
        return atoms_variables(self.body) - self.head.variable_set()

    def is_recursive(self) -> bool:
        """``True`` when the head predicate also appears in the body."""
        return self.head.predicate in self.body_predicates()

    def is_linear_recursive(self) -> bool:
        """``True`` when the head predicate appears *exactly once* in the body.

        This is the paper's notion of a linear recursive rule (Section 2).
        """
        return self.body_predicates().count(self.head.predicate) == 1

    def recursive_atoms(self) -> List[Atom]:
        """Body atoms whose predicate is the head predicate."""
        return [atom for atom in self.body if atom.predicate == self.head.predicate]

    def recursive_atom(self) -> Atom:
        """The unique recursive body atom of a linear recursive rule.

        Raises :class:`ProgramError` if the rule is not linear recursive.
        """
        recursive = self.recursive_atoms()
        if len(recursive) != 1:
            raise ProgramError(
                f"rule {self} is not linear recursive: head predicate occurs "
                f"{len(recursive)} times in the body"
            )
        return recursive[0]

    def nonrecursive_atoms(self) -> List[Atom]:
        """Body atoms whose predicate differs from the head predicate."""
        return [atom for atom in self.body if atom.predicate != self.head.predicate]

    def has_repeated_nonrecursive_predicates(self) -> bool:
        """``True`` when some non-head predicate occurs more than once in the body.

        Theorems 3.3 and 3.4 are stated for rules *without* repeated
        nonrecursive predicates; the detection pipeline checks this flag.
        """
        names = [atom.predicate for atom in self.nonrecursive_atoms()]
        return len(names) != len(set(names))

    def head_has_repeated_variables_or_constants(self) -> bool:
        """``True`` when the head violates the paper's standing assumption.

        The paper requires heads with no repeated variables and no constants.
        """
        variables = self.head_variables()
        has_repeats = len(variables) != len(set(variables))
        has_constants = len(variables) != self.head.arity
        return has_repeats or has_constants

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.head} :- {body}."

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({self!s})"


@dataclass(frozen=True)
class Program:
    """An ordered, immutable collection of rules.

    The order of rules is preserved (it only matters for readable printing);
    equality is order-insensitive set equality of the rules.
    """

    rules: Tuple[Rule, ...] = ()

    @staticmethod
    def of(*rules: Rule) -> "Program":
        """Convenience constructor from individual rules."""
        return Program(tuple(rules))

    def __post_init__(self) -> None:
        arities: Dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                known = arities.get(atom.predicate)
                if known is None:
                    arities[atom.predicate] = atom.arity
                elif known != atom.arity:
                    raise SchemaError(
                        f"predicate {atom.predicate} used with arities {known} and {atom.arity}"
                    )
        object.__setattr__(self, "_arities", arities)
        # programs key the per-program memos, several lookups per answer(): hash once
        object.__setattr__(self, "_hash", hash(frozenset(self.rules)))

    # ------------------------------------------------------------------
    # predicate classification
    # ------------------------------------------------------------------
    def arity_of(self, predicate: str) -> int:
        """Arity of ``predicate`` as used by the program."""
        arity = self.declared_arity(predicate)
        if arity is None:
            raise ProgramError(f"predicate {predicate} does not appear in the program")
        return arity

    def declared_arity(self, predicate: str) -> Optional[int]:
        """Arity of ``predicate``, or ``None`` when the program never mentions it."""
        return getattr(self, "_arities").get(predicate)

    def predicates(self) -> Set[str]:
        """All predicate names mentioned anywhere in the program."""
        return set(getattr(self, "_arities"))

    def idb_predicates(self) -> Set[str]:
        """Predicates defined by at least one rule head."""
        return {rule.head.predicate for rule in self.rules}

    def edb_predicates(self) -> Set[str]:
        """Predicates never appearing in a rule head (defined by their extent)."""
        return self.predicates() - self.idb_predicates()

    def rules_for(self, predicate: str) -> List[Rule]:
        """All rules whose head predicate is ``predicate``."""
        return [rule for rule in self.rules if rule.head.predicate == predicate]

    def recursive_rules_for(self, predicate: str) -> List[Rule]:
        """Rules for ``predicate`` that are (directly) recursive."""
        return [rule for rule in self.rules_for(predicate) if rule.is_recursive()]

    def exit_rules_for(self, predicate: str) -> List[Rule]:
        """Rules for ``predicate`` whose body does not mention ``predicate``.

        The paper calls these the *nonrecursive* or *exit* rules.
        """
        return [rule for rule in self.rules_for(predicate) if not rule.is_recursive()]

    # ------------------------------------------------------------------
    # dependency analysis
    # ------------------------------------------------------------------
    def dependency_graph(self) -> Dict[str, Set[str]]:
        """Map each IDB predicate to the set of predicates its rules use."""
        graph: Dict[str, Set[str]] = {}
        for rule in self.rules:
            graph.setdefault(rule.head.predicate, set()).update(rule.body_predicates())
        return graph

    def depends_on(self, predicate: str) -> Set[str]:
        """Transitive closure of the dependency graph from ``predicate``."""
        graph = self.dependency_graph()
        seen: Set[str] = set()
        frontier = [predicate]
        while frontier:
            current = frontier.pop()
            for dependency in graph.get(current, set()):
                if dependency not in seen:
                    seen.add(dependency)
                    frontier.append(dependency)
        return seen

    def is_recursive_predicate(self, predicate: str) -> bool:
        """``True`` when ``predicate`` (transitively) depends on itself."""
        return predicate in self.depends_on(predicate)

    def stratum_order(self) -> List[str]:
        """IDB predicates in a bottom-up evaluation order (dependencies first).

        Mutually recursive predicates end up adjacent; purely positive
        programs need nothing stronger than this ordering.
        """
        graph = self.dependency_graph()
        idb = self.idb_predicates()
        order: List[str] = []
        visited: Set[str] = set()
        # a depth-first post-order kept on an explicit stack: a nested
        # function calling itself would be a function <-> closure-cell cycle
        # per call, holding these sets until the collector runs
        for root in sorted(idb):
            if root in visited:
                continue
            in_stack = {root}
            stack = [(root, iter(sorted(graph.get(root, set()))))]
            while stack:
                node, dependencies = stack[-1]
                for dependency in dependencies:
                    if dependency in idb and dependency not in visited and dependency not in in_stack:
                        # a dependency already on the stack is a recursive
                        # cycle, evaluated jointly
                        in_stack.add(dependency)
                        stack.append((dependency, iter(sorted(graph.get(dependency, set())))))
                        break
                else:
                    stack.pop()
                    in_stack.discard(node)
                    visited.add(node)
                    order.append(node)
        return order

    # ------------------------------------------------------------------
    # the paper's canonical shape: one linear recursive rule + exit rules
    # ------------------------------------------------------------------
    def is_single_linear_recursion(self, predicate: str) -> bool:
        """``True`` when ``predicate`` is defined by exactly one recursive rule,
        that rule is linear, and every other rule for it is nonrecursive.

        This is the shape Sections 2–4 of the paper assume.
        """
        recursive = self.recursive_rules_for(predicate)
        if len(recursive) != 1:
            return False
        if not recursive[0].is_linear_recursive():
            return False
        # the recursive rule must not involve other IDB predicates that
        # themselves depend on `predicate` (mutual recursion)
        for other in recursive[0].nonrecursive_atoms():
            if other.predicate in self.idb_predicates() and predicate in self.depends_on(other.predicate):
                return False
        return True

    def linear_recursive_rule(self, predicate: str) -> Rule:
        """The unique linear recursive rule for ``predicate``.

        Raises :class:`ProgramError` when the program does not have the
        single-linear-recursive-rule shape for ``predicate``.
        """
        recursive = self.recursive_rules_for(predicate)
        if len(recursive) != 1:
            raise ProgramError(
                f"predicate {predicate} has {len(recursive)} recursive rules; "
                "expected exactly one"
            )
        rule = recursive[0]
        if not rule.is_linear_recursive():
            raise ProgramError(f"recursive rule for {predicate} is not linear: {rule}")
        return rule

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def with_rules(self, extra: Iterable[Rule]) -> "Program":
        """A new program with ``extra`` rules appended."""
        return Program(self.rules + tuple(extra))

    def without_rule(self, rule: Rule) -> "Program":
        """A new program with the first occurrence of ``rule`` removed."""
        rules = list(self.rules)
        rules.remove(rule)
        return Program(tuple(rules))

    def replace_rule(self, old: Rule, new: Rule) -> "Program":
        """A new program with ``old`` replaced by ``new`` (first occurrence)."""
        rules = list(self.rules)
        index = rules.index(old)
        rules[index] = new
        return Program(tuple(rules))

    # ------------------------------------------------------------------
    # rendering / equality
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return set(self.rules) == set(other.rules)

    def __hash__(self) -> int:
        return getattr(self, "_hash")

    def __reduce__(self):
        # rebuild from the rules: a pickled ``_hash`` is wrong in another process
        return (Program, (self.rules,))


def single_linear_recursion(recursive_rule: Rule, *exit_rules: Rule) -> Program:
    """Build the canonical program shape the paper studies.

    Validates that ``recursive_rule`` is linear recursive, that every exit rule
    defines the same predicate nonrecursively, and that no head violates the
    paper's "no repeated variables, no constants" assumption.
    """
    if not recursive_rule.is_recursive():
        raise ProgramError(f"{recursive_rule} is not recursive")
    if not recursive_rule.is_linear_recursive():
        raise ProgramError(f"{recursive_rule} is not linear recursive")
    predicate = recursive_rule.head.predicate
    for rule in (recursive_rule, *exit_rules):
        if rule.head.predicate != predicate:
            raise ProgramError(
                f"exit rule {rule} defines {rule.head.predicate}, expected {predicate}"
            )
        if rule.head_has_repeated_variables_or_constants():
            raise ProgramError(
                f"rule {rule} has repeated variables or constants in its head, "
                "which the paper's standing assumptions forbid"
            )
    for rule in exit_rules:
        if rule.is_recursive():
            raise ProgramError(f"exit rule {rule} is recursive")
    return Program((recursive_rule, *exit_rules))
