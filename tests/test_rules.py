"""Unit tests for :mod:`repro.datalog.rules`."""

from __future__ import annotations

import pytest

from repro.core import FORWARD, compile_schema
from repro.datalog import ProgramError, SchemaError, parse_program, parse_rule
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Variable
from repro.workloads import nonlinear_tc, transitive_closure


@pytest.fixture
def tc_rule() -> Rule:
    return parse_rule("t(X, Y) :- a(X, Z), t(Z, Y).")


class TestRule:
    def test_str_round_trip(self, tc_rule):
        assert parse_rule(str(tc_rule)) == tc_rule

    def test_pickles_from_another_process_hash_as_local_ones(self):
        """Rules and programs hash once, at construction; string hashes differ
        between interpreters, so a pickle must rebuild the hash, not carry it."""
        import os
        import pickle
        import subprocess
        import sys

        import repro

        text = "t(X, Y) :- a(X, Z), t(Z, Y). t(X, Y) :- b(X, Y)."
        script = (
            "import pickle, sys\n"
            "from repro.datalog import parse_program\n"
            f"program = parse_program({text!r})\n"
            "sys.stdout.buffer.write(pickle.dumps((program.rules[0], program)))\n"
        )
        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        hash_seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        completed = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        rule, program = pickle.loads(completed.stdout)
        local = parse_program(text)
        assert rule == local.rules[0] and hash(rule) == hash(local.rules[0])
        assert {local.rules[0]: "found"}.get(rule) == "found"
        assert program == local and hash(program) == hash(local)
        assert pickle.loads(pickle.dumps(rule)) == rule

    def test_is_recursive(self, tc_rule):
        assert tc_rule.is_recursive()
        assert not parse_rule("t(X, Y) :- b(X, Y).").is_recursive()

    def test_is_linear_recursive(self, tc_rule):
        assert tc_rule.is_linear_recursive()
        nonlinear = parse_rule("t(X, Y) :- t(X, Z), t(Z, Y).")
        assert nonlinear.is_recursive()
        assert not nonlinear.is_linear_recursive()

    def test_recursive_atom(self, tc_rule):
        assert tc_rule.recursive_atom() == Atom.of("t", "Z", "Y")

    def test_recursive_atom_rejects_nonlinear(self):
        nonlinear = parse_rule("t(X, Y) :- t(X, Z), t(Z, Y).")
        with pytest.raises(ProgramError):
            nonlinear.recursive_atom()

    def test_nonrecursive_atoms(self, tc_rule):
        assert tc_rule.nonrecursive_atoms() == [Atom.of("a", "X", "Z")]

    def test_head_and_nondistinguished_variables(self, tc_rule):
        assert tc_rule.head_variables() == [Variable("X"), Variable("Y")]
        assert tc_rule.nondistinguished_variables() == {Variable("Z")}

    def test_repeated_nonrecursive_predicates(self):
        repeated = parse_rule("sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).")
        assert repeated.has_repeated_nonrecursive_predicates()
        assert not parse_rule("t(X, Y) :- a(X, Z), t(Z, Y).").has_repeated_nonrecursive_predicates()

    def test_head_assumption_checks(self):
        assert parse_rule("t(X, X) :- a(X).").head_has_repeated_variables_or_constants()
        assert parse_rule("t(X, 1) :- a(X).").head_has_repeated_variables_or_constants()
        assert not parse_rule("t(X, Y) :- a(X, Y).").head_has_repeated_variables_or_constants()

    def test_is_fact(self):
        assert parse_rule("edge(1, 2).").is_fact
        assert not parse_rule("edge(X, 2).").is_fact


class TestProgram:
    def test_idb_edb_split(self, tc_program):
        assert tc_program.idb_predicates() == {"t"}
        assert tc_program.edb_predicates() == {"a", "b"}

    def test_arity_of(self, tc_program):
        assert tc_program.arity_of("t") == 2
        with pytest.raises(ProgramError):
            tc_program.arity_of("missing")

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(SchemaError):
            parse_program("t(X) :- a(X). t(X, Y) :- a(X, Y).")

    def test_rules_for_and_exit_rules(self, tc_program):
        assert len(tc_program.rules_for("t")) == 2
        assert len(tc_program.exit_rules_for("t")) == 1
        assert len(tc_program.recursive_rules_for("t")) == 1

    def test_linear_recursive_rule(self, tc_program):
        rule = tc_program.linear_recursive_rule("t")
        assert rule.is_linear_recursive()

    def test_linear_recursive_rule_rejects_nonlinear(self):
        with pytest.raises(ProgramError):
            nonlinear_tc().linear_recursive_rule("t")

    def test_is_single_linear_recursion(self, tc_program):
        assert tc_program.is_single_linear_recursion("t")
        assert not nonlinear_tc().is_single_linear_recursion("t")

    def test_mutual_recursion_is_not_single_linear(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """
        )
        assert not program.is_single_linear_recursion("even")
        assert program.is_recursive_predicate("even")
        assert program.is_recursive_predicate("odd")

    def test_dependency_analysis(self, tc_program):
        assert tc_program.depends_on("t") == {"a", "b", "t"}
        assert tc_program.is_recursive_predicate("t")

    def test_stratum_order_places_dependencies_first(self):
        program = parse_program(
            """
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            in_cycle(X) :- reach(X, X).
            """
        )
        order = program.stratum_order()
        assert order.index("reach") < order.index("in_cycle")

    def test_program_equality_ignores_order(self):
        first = parse_program("t(X, Y) :- a(X, Y). t(X, Y) :- b(X, Y).")
        second = parse_program("t(X, Y) :- b(X, Y). t(X, Y) :- a(X, Y).")
        assert first == second
        assert hash(first) == hash(second)

    def test_replace_and_remove_rules(self, tc_program):
        rule = tc_program.linear_recursive_rule("t")
        replacement = parse_rule("t(X, Y) :- a(X, Z), t(Z, Y), extra(X).")
        replaced = tc_program.replace_rule(rule, replacement)
        assert replacement in replaced.rules
        removed = tc_program.without_rule(rule)
        assert rule not in removed.rules
        assert len(removed.rules) == len(tc_program.rules) - 1


class TestPaperShape:
    """The shape Sections 2–4 assume — one linear recursive rule plus
    nonrecursive exit rules for the same predicate, distinct head variables —
    as the program and the one-sided schema check it."""

    recursive = "t(X, Y) :- a(X, Z), t(Z, Y)."
    exit = "t(X, Y) :- b(X, Y)."

    def test_recursive_rule_with_exit_has_the_shape(self):
        recursive, exit_rule = parse_rule(self.recursive), parse_rule(self.exit)
        program = Program.of(recursive, exit_rule)
        assert program.is_single_linear_recursion("t")
        assert program.linear_recursive_rule("t") == recursive
        assert program.exit_rules_for("t") == [exit_rule]
        assert compile_schema(program, "t", 2, (0,)).direction == FORWARD

    def test_exit_rule_alone_is_not_a_recursion(self):
        program = Program.of(parse_rule(self.exit))
        assert not program.is_single_linear_recursion("t")
        with pytest.raises(ProgramError):
            program.linear_recursive_rule("t")
        with pytest.raises(ProgramError):
            compile_schema(program, "t", 2, (0,), require_one_sided=False)

    def test_exit_rule_for_another_predicate_leaves_no_exit(self):
        program = Program.of(parse_rule(self.recursive), parse_rule("s(X, Y) :- b(X, Y)."))
        assert program.exit_rules_for("t") == []
        assert not program.is_single_linear_recursion("s")
        with pytest.raises(ProgramError, match="no exit rule"):
            compile_schema(program, "t", 2, (0,), require_one_sided=False)

    def test_repeated_head_variables_are_refused(self):
        recursive = parse_rule("t(X, X) :- a(X, Z), t(Z, X).")
        assert recursive.head_has_repeated_variables_or_constants()
        program = Program.of(recursive, parse_rule(self.exit))
        with pytest.raises(ProgramError, match="distinct variables"):
            compile_schema(program, "t", 2, (0,), require_one_sided=False)

    def test_recursive_exit_rule_breaks_the_shape(self):
        program = Program.of(parse_rule(self.recursive), parse_rule("t(X, Y) :- t(Y, X)."))
        assert len(program.recursive_rules_for("t")) == 2
        assert not program.is_single_linear_recursion("t")
        with pytest.raises(ProgramError):
            program.linear_recursive_rule("t")
