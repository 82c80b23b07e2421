"""The magic-sets transformation — the general-purpose baseline.

Section 4 points out that the two structural difficulties of many-sided
recursions "force one to turn to methods such as Magic Sets or Counting".
This module implements generalized magic sets [BMSU86, BR87] for positive
Datalog with a ``column = constant`` query:

1. **Adornment** — starting from the query's bound/free pattern, propagate
   binding patterns through rule bodies with a bound-first
   sideways-information-passing order (the same greedy order the rest of the
   library uses).
2. **Magic rules** — for every adorned IDB body atom, a rule deriving its
   magic (relevant-bindings) relation from the head's magic relation and the
   preceding body atoms.
3. **Modified rules** — each adorned rule is guarded by the magic relation of
   its head.
4. The transformed program is evaluated with semi-naive iteration, seeded with
   the query constants as the initial magic fact.

The rewriting restricts the bottom-up computation to facts relevant to the
query, which is the behaviour the one-sided schema achieves *without* any
rewriting; the benchmarks compare the two on both one-sided and many-sided
inputs.

The transformed program is handed to :func:`repro.engine.seminaive.seminaive_evaluate`
unchanged, so the whole magic fixpoint rides the generated join kernels: the
seeded database shares the original relations (only the magic seed is new),
and every magic/modified rule runs as a generated kernel over the stored
values, so a query touches only the facts relevant to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError
from ..datalog.relation import Relation
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable, is_variable
from ..engine.compile import compiled, plan_order
from ..engine.instrumentation import EvaluationStats
from ..engine.query import QueryResult, SelectionQuery
from ..engine.seminaive import seminaive_evaluate, seminaive_query

Adornment = str  # e.g. "bf"


def _adorned_name(predicate: str, adornment: Adornment) -> str:
    return f"{predicate}__{adornment}"


def _magic_name(predicate: str, adornment: Adornment) -> str:
    return f"magic__{predicate}__{adornment}"


def _atom_adornment(atom: Atom, bound: Set[Variable]) -> Adornment:
    letters = []
    for arg in atom.args:
        if isinstance(arg, Constant) or (is_variable(arg) and arg in bound):
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


def _bound_args(atom: Atom, adornment: Adornment) -> Tuple:
    return tuple(arg for arg, letter in zip(atom.args, adornment) if letter == "b")


@dataclass
class MagicRewriting:
    """The adorned + magic program for one query, plus bookkeeping."""

    original: Program
    query: SelectionQuery
    rewritten: Program
    #: adorned name of the query predicate (where the answers live)
    answer_predicate: str
    #: name and seed tuple of the query's magic relation
    seed_predicate: str
    seed_tuple: Tuple
    #: adorned predicates processed, in order
    adorned_predicates: List[Tuple[str, Adornment]] = field(default_factory=list)

    @property
    def rule_count(self) -> int:
        """Number of rules in the rewritten program (rewriting overhead indicator)."""
        return len(self.rewritten.rules)

    def seed_relation(self, query: SelectionQuery) -> Relation:
        """The magic relation holding ``query``'s one seed tuple (any query of this adornment)."""
        seed = tuple(value for _column, value in sorted(query.bindings))
        return Relation(self.seed_predicate, len(seed), [seed])


def kept_rewrite(program: Program, query: SelectionQuery) -> MagicRewriting:
    """:func:`magic_rewrite` for ``query``'s adornment, kept on the program: the rewritten
    program holds no constant, so each query of the adornment runs it seeded with its own
    :meth:`~MagicRewriting.seed_relation` (``query`` / ``seed_tuple`` are the first caller's)."""
    kept = compiled(program).magic
    key = (query.predicate, query.arity, query.bound_columns())
    rewriting = kept.get(key)
    if rewriting is None:
        rewriting = kept[key] = magic_rewrite(program, query)
    return rewriting


def magic_rewrite(program: Program, query: SelectionQuery) -> MagicRewriting:
    """Produce the adorned magic program for ``query``."""
    if query.predicate not in program.idb_predicates():
        raise EvaluationError(f"{query.predicate} is not an IDB predicate of the program")
    if not query.bound_columns():
        raise EvaluationError(
            "magic sets requires at least one bound column; use semi-naive evaluation "
            "for unconstrained queries"
        )

    idb = program.idb_predicates()
    query_adornment = "".join(
        "b" if column in set(query.bound_columns()) else "f" for column in range(query.arity)
    )

    worklist: List[Tuple[str, Adornment]] = [(query.predicate, query_adornment)]
    processed: Set[Tuple[str, Adornment]] = set()
    new_rules: List[Rule] = []
    adorned_order: List[Tuple[str, Adornment]] = []

    while worklist:
        predicate, adornment = worklist.pop(0)
        if (predicate, adornment) in processed:
            continue
        processed.add((predicate, adornment))
        adorned_order.append((predicate, adornment))

        for rule in program.rules_for(predicate):
            head = rule.head
            bound_head_vars = {
                arg
                for arg, letter in zip(head.args, adornment)
                if letter == "b" and is_variable(arg)
            }
            order = plan_order(rule.body, set(bound_head_vars))
            ordered_body = [rule.body[index] for index in order]

            adorned_body: List[Atom] = []
            magic_bodies: List[Tuple[Atom, List[Atom]]] = []  # (idb atom w/ adornment applied, prefix)
            bound_vars = set(bound_head_vars)
            prefix: List[Atom] = []
            for atom in ordered_body:
                if atom.predicate in idb:
                    body_adornment = _atom_adornment(atom, bound_vars)
                    adorned_atom = Atom(_adorned_name(atom.predicate, body_adornment), atom.args)
                    adorned_body.append(adorned_atom)
                    if "b" in body_adornment:
                        magic_atom = Atom(
                            _magic_name(atom.predicate, body_adornment),
                            _bound_args(atom, body_adornment),
                        )
                        magic_bodies.append((magic_atom, list(prefix)))
                    if (atom.predicate, body_adornment) not in processed:
                        worklist.append((atom.predicate, body_adornment))
                    prefix.append(adorned_atom)
                else:
                    adorned_body.append(atom)
                    prefix.append(atom)
                bound_vars |= atom.variable_set()

            magic_head_atom = Atom(
                _magic_name(predicate, adornment), _bound_args(head, adornment)
            )
            adorned_head = Atom(_adorned_name(predicate, adornment), head.args)

            # modified rule: guarded by the magic relation of its head
            guard: List[Atom] = [magic_head_atom] if "b" in adornment else []
            new_rules.append(Rule(adorned_head, tuple(guard + adorned_body)))

            # magic rules for each adorned IDB body atom
            for magic_atom, atoms_before in magic_bodies:
                new_rules.append(Rule(magic_atom, tuple(guard + atoms_before)))

    seed_predicate = _magic_name(query.predicate, query_adornment)
    seed_tuple = tuple(value for _column, value in sorted(query.bindings))

    return MagicRewriting(
        original=program,
        query=query,
        rewritten=Program(tuple(new_rules)),
        answer_predicate=_adorned_name(query.predicate, query_adornment),
        seed_predicate=seed_predicate,
        seed_tuple=seed_tuple,
        adorned_predicates=adorned_order,
    )


def magic_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """Answer ``query`` by magic-sets rewriting + semi-naive evaluation."""
    stats = stats if stats is not None else EvaluationStats()
    if not query.bound_columns():
        answers, stats = seminaive_query(program, database, query.predicate, {}, stats)
        return QueryResult(query, answers, stats, strategy="seminaive (no bound columns)")

    stats.start_timer()
    rewriting = kept_rewrite(program, query)

    # Overlay database: the EDB relations are shared (semi-naive evaluation
    # never mutates its inputs), only the magic seed relation is fresh, so a
    # query does not pay for copying the whole database.
    seeded = Database(database.relations())
    seeded.add_relation(rewriting.seed_relation(query))
    derived = seminaive_evaluate(rewriting.rewritten, seeded, stats)

    answer_relation = derived.get(rewriting.answer_predicate)
    answers = set(answer_relation.rows()) if answer_relation is not None else set()
    answers = query.select(answers)
    stats.extra["magic_rules"] = rewriting.rule_count
    stats.extra["magic_facts"] = sum(
        len(relation)
        for name, relation in derived.items()
        if name.startswith("magic__")
    )
    stats.stop_timer()
    return QueryResult(query, answers, stats, strategy="magic-sets")
