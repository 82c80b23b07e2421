"""The naive oracle (:mod:`repro.testing.oracle`) stays naive and independent.

``tests/test_compile.py`` holds every compiled plan to the oracle, so the
oracle must not reach the code it checks: no planner, no :class:`Relation`,
no index.  Its own answers are checked against an ``itertools.product``
enumeration of every row combination.
"""

from __future__ import annotations

import ast
import itertools
from importlib.util import resolve_name
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parse_atom, parse_program, parse_rule
from repro.datalog.terms import Variable
from repro.testing import oracle

#: modules the oracle may import (relative imports resolve under ``repro``)
ALLOWED = {"repro.datalog.atoms", "repro.datalog.terms", "repro.datalog.rules"}
FORBIDDEN_PREFIXES = ("repro.engine", "repro.datalog.relation", "repro.datalog.database")


def oracle_imports():
    """Absolute names of the modules ``repro/testing/oracle.py`` imports."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = resolve_name("." * node.level + (node.module or ""), "repro.testing")
            if node.module:
                imported.add(module)
            else:  # ``from . import name`` imports a submodule
                imported.update(f"{module}.{alias.name}" for alias in node.names)
    return imported


def brute_force(atoms, facts, bindings=None):
    """Every assignment, found by trying every combination of rows."""
    found = []
    for combination in itertools.product(*(sorted(facts.get(atom.predicate, ())) for atom in atoms)):
        assignment = dict(bindings or {})
        consistent = True
        for atom, row in zip(atoms, combination):
            for arg, value in zip(atom.args, row):
                if isinstance(arg, Variable):
                    if assignment.setdefault(arg, value) != value:
                        consistent = False
                elif arg.value != value:
                    consistent = False
        if consistent:
            found.append(assignment)
    return found


def as_set(assignments):
    return {tuple(sorted(assignment.items())) for assignment in assignments}


FACTS = {"a": {(1, 2), (2, 3), (3, 4)}, "b": {(4, 5), (2, 9)}, "p": {(2,), (3,)}}


class TestIndependence:
    def test_imports_nothing_from_the_engine_or_the_storage_layer(self):
        imported = oracle_imports()
        assert {"repro.datalog.atoms", "repro.datalog.rules", "repro.datalog.terms"} <= imported
        offending = sorted(name for name in imported if name.startswith(FORBIDDEN_PREFIXES))
        assert not offending, f"repro/testing/oracle.py imports {offending}"
        assert {name for name in imported if name.startswith("repro")} <= ALLOWED


class TestOracle:
    def test_paper_string_matches_brute_force(self):
        atoms = [parse_atom("a(X, Z0)"), parse_atom("a(Z0, Z1)"), parse_atom("b(Z1, Y)")]
        assert as_set(oracle.solutions(atoms, FACTS)) == as_set(brute_force(atoms, FACTS))

    def test_bindings_constants_and_repeated_variables(self):
        facts = {**FACTS, "e": {(1, 1), (1, 2), (3, 3)}}
        atoms = [parse_atom("e(X, X)"), parse_atom("a(X, 2)")]
        assert oracle.solutions(atoms, facts) == [{Variable("X"): 1}]
        assert oracle.solutions(atoms, facts, {Variable("X"): 3}) == []

    def test_missing_predicate_has_no_rows(self):
        assert oracle.solutions([parse_atom("ghost(X)")], FACTS) == []

    def test_apply_rule_projects_the_head(self):
        assert oracle.apply_rule(parse_rule("tagged(X, special) :- p(X)."), FACTS) == {(2, "special"), (3, "special")}
        assert oracle.apply_rule(parse_rule("weird(X, Q) :- p(X)."), FACTS) == set()
        assert oracle.apply_rule(parse_rule("weird(X, Q) :- p(X)."), FACTS, {Variable("Q"): 0}) == {(2, 0), (3, 0)}

    @settings(max_examples=30, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=15),
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=15),
    )
    def test_three_atom_join_matches_brute_force(self, a_rows, f_rows):
        facts = {"a": a_rows, "f": f_rows}
        atoms = [parse_atom("a(X, Y)"), parse_atom("f(Y, Z, X)"), parse_atom("a(Z, 1)")]
        assert as_set(oracle.solutions(atoms, facts)) == as_set(brute_force(atoms, facts))


class TestFixpoint:
    def test_transitive_closure_is_the_least_model(self):
        program = parse_program("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).")
        model = oracle.fixpoint(program, FACTS)
        assert model["t"] == {(4, 5), (3, 5), (2, 5), (1, 5), (2, 9), (1, 9)}
        assert model["a"] == FACTS["a"]  # the facts themselves, untouched

    def test_mutual_recursion_and_stored_facts_of_a_derived_predicate(self):
        program = parse_program("even(Y) :- odd(X), a(X, Y).\nodd(Y) :- even(X), a(X, Y).")
        model = oracle.fixpoint(program, {**FACTS, "even": {(1,)}})
        assert model["even"] == {(1,), (3,)}
        assert model["odd"] == {(2,), (4,)}
