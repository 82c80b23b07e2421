"""Seeded random program + database generator for differential testing.

Every case is produced deterministically from one integer seed: a *family*
(chain, tree, cyclic, cross-product, one-sided, two-sided, bounded — the
shapes the paper's analysis distinguishes and the ``workloads`` package
models), a program drawn from the canonical definitions, a randomized
database sized for fast fixpoints, and a single-column selection query.  The
differential runner (:mod:`repro.testing.differential`) evaluates each case
under every engine and asserts tuple-for-tuple agreement, which gives the
test suite an unbounded supply of scenarios beyond the hand-written fixtures.

The *bounded* family draws uniformly bounded recursions (guard, swap and
Appendix A shapes), so the optimizer's bounded-recursion unfolding pass is
exercised — and cross-checked against every other engine — on every batch.

The *labelled* family has its own generator (:func:`generate_labelled_case`),
so the base seeds keep their ``seed % len(FAMILIES)`` families: transitive
closure with permissions over labelled arity-3 edges, with constants in the
body, whose plans probe two columns of a relation at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..datalog.database import Database
from ..datalog.parser import parse_program
from ..datalog.rules import Program
from ..engine.query import SelectionQuery
from ..workloads.graphs import chain, cycle, edge_database, uniform_tree
from ..workloads.programs import (
    appendix_a_p,
    bounded_guard_tc,
    bounded_swap,
    buys_optimized,
    canonical_two_sided,
    same_generation,
    tc_with_permissions,
    transitive_closure,
)

FAMILIES = ("chain", "tree", "cyclic", "cross", "one_sided", "two_sided", "bounded")


@dataclass
class DifferentialCase:
    """One randomly generated program/database/query triple."""

    seed: int
    family: str
    description: str
    program: Program
    database: Database
    query: SelectionQuery

    @property
    def name(self) -> str:
        return f"{self.family}[seed={self.seed}]"


def _forward_extras(rng: random.Random, nodes: List[int], count: int) -> List[Tuple[int, int]]:
    """Random edges that respect the node ordering (cannot create cycles)."""
    extras: List[Tuple[int, int]] = []
    if len(nodes) < 2:
        return extras
    for _ in range(count):
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        extras.append((nodes[i], nodes[j]))
    return extras


def _any_extras(rng: random.Random, nodes: List[int], count: int) -> List[Tuple[int, int]]:
    """Random edges in any direction (may create cycles)."""
    extras: List[Tuple[int, int]] = []
    for _ in range(count):
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        if source != target:
            extras.append((source, target))
    return extras


def _pick_query(
    rng: random.Random,
    predicate: str,
    database: Database,
    absent_value: object = "nowhere",
) -> SelectionQuery:
    """A single-column selection: usually a domain value on column 0.

    With small probability the query binds column 1 instead (exercising the
    other adornment in magic sets) or a constant absent from the database
    (exercising empty answer sets).
    """
    domain = sorted(database.active_domain(), key=str)
    column = 1 if rng.random() < 0.2 else 0
    if not domain or rng.random() < 0.1:
        value = absent_value
    else:
        value = rng.choice(domain)
    return SelectionQuery.of(predicate, 2, {column: value})


def generate_case(seed: int) -> DifferentialCase:
    """Deterministically generate one differential case from ``seed``."""
    rng = random.Random(seed)
    family = FAMILIES[seed % len(FAMILIES)]

    if family == "chain":
        length = rng.randrange(3, 25)
        edges = chain(length)
        nodes = list(range(length + 1))
        edges += _forward_extras(rng, nodes, rng.randrange(0, 8))
        base = _forward_extras(rng, nodes, rng.randrange(1, 6)) or edges[:1]
        database = edge_database(edges, base_edges=base)
        program = transitive_closure()
        description = f"transitive closure over a {length}-chain with forward extras"
        query = _pick_query(rng, "t", database)

    elif family == "tree":
        branching = rng.randrange(2, 4)
        depth = rng.randrange(2, 5)
        edges = uniform_tree(branching, depth)
        nodes = sorted({n for e in edges for n in e})
        edges += _forward_extras(rng, nodes, rng.randrange(0, 6))
        database = edge_database(edges)
        program = transitive_closure()
        description = f"transitive closure over a {branching}-ary depth-{depth} tree"
        query = _pick_query(rng, "t", database)

    elif family == "cyclic":
        length = rng.randrange(3, 12)
        edges = cycle(length)
        nodes = list(range(length))
        edges += _any_extras(rng, nodes, rng.randrange(0, 8))
        database = edge_database(edges)
        program = transitive_closure()
        description = f"transitive closure over a {length}-cycle with random extras"
        query = _pick_query(rng, "t", database)

    elif family == "cross":
        # A cross-product exit layer under a recursion: two strata, and the
        # recursion's exit rule depends on another IDB predicate.
        program = _CROSS_PROGRAM
        domain = rng.randrange(4, 12)
        database = Database()
        database.declare("c", 1)
        database.declare("d", 1)
        database.declare("a", 2)
        for value in range(domain):
            if rng.random() < 0.5:
                database.add_fact("c", (value,))
            if rng.random() < 0.5:
                database.add_fact("d", (value,))
        nodes = list(range(domain))
        for source, target in _forward_extras(rng, nodes, rng.randrange(2, domain + 2)):
            database.add_fact("a", (source, target))
        description = f"cross-product exit layer under a recursion, domain {domain}"
        query = _pick_query(rng, "t", database)

    elif family == "one_sided":
        if rng.random() < 0.5:
            program = buys_optimized()
            people = rng.randrange(4, 12)
            items = rng.randrange(2, 6)
            database = Database()
            database.declare("likes", 2)
            database.declare("knows", 2)
            database.declare("cheap", 1)
            for item in range(items):
                if rng.random() < 0.6:
                    database.add_fact("cheap", (f"i{item}",))
            for person in range(people):
                database.add_fact("likes", (f"p{person}", f"i{rng.randrange(items)}"))
                for _ in range(rng.randrange(0, 3)):
                    other = rng.randrange(people)
                    if other != person:
                        database.add_fact("knows", (f"p{person}", f"p{other}"))
            description = f"buys recursion over {people} people / {items} items"
            query = _pick_query(rng, "buys", database)
        else:
            program = tc_with_permissions()
            length = rng.randrange(3, 12)
            nodes = list(range(length + 1))
            edges = chain(length) + _forward_extras(rng, nodes, rng.randrange(0, 6))
            database = edge_database(edges)
            database.declare("p", 2)
            for source in nodes:
                for target in nodes:
                    if rng.random() < 0.6:
                        database.add_fact("p", (source, target))
            description = f"transitive closure with permissions over a {length}-chain"
            query = _pick_query(rng, "t", database)

    elif family == "bounded":
        # Uniformly bounded recursions: the unfolding pass rewrites these to
        # nonrecursive unions, and the differential runner checks the rewrite
        # against the fixpoint engines tuple for tuple.
        shape = rng.choice(("guard", "swap", "appendix_a"))
        if shape == "appendix_a":
            program = appendix_a_p()
            domain = rng.randrange(4, 14)
            database = Database()
            database.declare("c", 1)
            database.declare("p0", 2)
            for value in range(domain):
                if rng.random() < 0.6:
                    database.add_fact("c", (value,))
            for _ in range(rng.randrange(2, domain + 4)):
                database.add_fact("p0", (rng.randrange(domain), rng.randrange(domain)))
            description = f"Appendix A bounded program over domain {domain}"
            query = _pick_query(rng, "p", database)
        else:
            program = bounded_guard_tc() if shape == "guard" else bounded_swap()
            domain = rng.randrange(4, 14)
            nodes = list(range(domain))
            database = Database()
            database.declare("a", 2)
            database.declare("b", 2)
            for edge in _any_extras(rng, nodes, rng.randrange(2, domain + 4)):
                database.add_fact("a", edge)
            for edge in _any_extras(rng, nodes, rng.randrange(1, domain + 2)):
                database.add_fact("b", edge)
            description = f"bounded {shape} recursion over domain {domain}"
            query = _pick_query(rng, "t", database)

    else:  # two_sided
        if rng.random() < 0.5:
            program = same_generation()
            branching = rng.randrange(2, 4)
            depth = rng.randrange(2, 4)
            database = Database()
            database.declare("p", 2)
            database.declare("sg0", 2)
            nodes = {0}
            for parent, child in uniform_tree(branching, depth):
                database.add_fact("p", (child, parent))
                nodes.add(parent)
                nodes.add(child)
            for node in nodes:
                database.add_fact("sg0", (node, node))
            description = f"same generation over a {branching}-ary depth-{depth} tree"
            query = _pick_query(rng, "sg", database)
        else:
            program = canonical_two_sided()
            length = rng.randrange(3, 10)
            nodes = list(range(length + 1))
            up = chain(length) + _forward_extras(rng, nodes, rng.randrange(0, 4))
            down = chain(length) + _forward_extras(rng, nodes, rng.randrange(0, 4))
            base = _forward_extras(rng, nodes, rng.randrange(1, 5)) or [(0, length)]
            database = Database()
            database.declare("a", 2)
            database.declare("b", 2)
            database.declare("c", 2)
            for edge in up:
                database.add_fact("a", edge)
            for edge in down:
                database.add_fact("c", edge)
            for edge in base:
                database.add_fact("b", edge)
            description = f"canonical two-sided recursion over {length}-chains"
            query = _pick_query(rng, "t", database)

    return DifferentialCase(
        seed=seed,
        family=family,
        description=description,
        program=program,
        database=database,
        query=query,
    )


def generate_labelled_case(seed: int) -> DifferentialCase:
    """Deterministically generate one case of the labelled family from ``seed``."""
    rng = random.Random(seed)
    # t(X, Y, L): a delta row binds Z and L, so a(X, Z, L) is probed on
    # two columns at once; p(X, grant, W) is probed on X and a constant.
    grant = rng.random() < 0.5
    guard = "p(X, grant, W)" if grant else "p(X, Y, L)"
    program = parse_program(f"t(X, Y, L) :- a(X, Z, L), t(Z, Y, L), {guard}. t(X, Y, L) :- b(X, Y, L).")
    length = rng.randrange(3, 12)
    nodes = list(range(length + 1))
    edges = chain(length) + _forward_extras(rng, nodes, rng.randrange(0, 6))
    base = _forward_extras(rng, nodes, rng.randrange(1, 5)) or edges[:1]
    middles = ("grant", "deny") if grant else nodes
    labels = ("read", "write", "admin")
    database = Database()
    for name, pairs in (("a", edges), ("b", base), ("p", [(x, y) for x in nodes for y in middles])):
        database.declare(name, 3)
        for source, target in pairs:
            for label in labels:
                if rng.random() < 0.5:
                    database.add_fact(name, (source, target, label))
    description = f"labelled closure ({guard}) over a {length}-chain"
    column = rng.randrange(3)
    query = SelectionQuery.of("t", 3, {column: rng.choice(labels if column == 2 else nodes)})
    return DifferentialCase(
        seed=seed,
        family="labelled",
        description=description,
        program=program,
        database=database,
        query=query,
    )


def generate_cases(count: int, base_seed: int = 0) -> List[DifferentialCase]:
    """``count`` deterministic cases with consecutive seeds."""
    return [generate_case(base_seed + offset) for offset in range(count)]


_CROSS_PROGRAM = parse_program(
    """
    pair(X, Y) :- c(X), d(Y).
    t(X, Y) :- pair(X, Y).
    t(X, Y) :- a(X, W), t(W, Y).
    """
)
