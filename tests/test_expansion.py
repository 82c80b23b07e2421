"""Tests for expansion generation (Figure 1 and the Appendix A generalization)."""

from __future__ import annotations

import pytest

from repro.datalog import ProgramError, parse_atom, parse_program
from repro.datalog.relation import Relation
from repro.datalog.terms import Constant, Variable
from repro.expansion import expand, expand_general, expansion_prefix_program
from repro.engine import EvaluationStats, seminaive_evaluate
from repro.datalog import Database
from repro.cq import ExpansionString, is_contained_in
from repro.core import one_sidedness_reduction
from repro.workloads import (
    appendix_a_p,
    canonical_two_sided,
    example_3_4,
    same_generation,
    transitive_closure,
)


class TestExpandTransitiveClosure:
    """Example 2.2: the expansion of the canonical one-sided recursion."""

    def test_first_strings_match_example_2_2(self, tc_program):
        strings = expand(tc_program, "t", 2)
        rendered = [str(s) for s in strings]
        assert rendered == [
            "b(X, Y)",
            "a(X, Z_0), b(Z_0, Y)",
            "a(X, Z_0), a(Z_0, Z_1), b(Z_1, Y)",
        ]

    def test_distinguished_variables(self, tc_program):
        strings = expand(tc_program, "t", 1)
        assert strings[0].distinguished == (Variable("X"), Variable("Y"))

    def test_subscript_convention(self, tc_program):
        """A nondistinguished variable W_i first appears on iteration i (Figure 1)."""
        strings = expand(tc_program, "t", 4)
        deepest = strings[-1]
        for atom, provenance in zip(deepest.atoms, deepest.provenance):
            for variable in atom.variable_set():
                if variable.subscript is not None:
                    assert variable.subscript <= provenance.iteration

    def test_provenance_marks_exit_atoms(self, tc_program):
        strings = expand(tc_program, "t", 3)
        for string in strings:
            exit_atoms = [
                atom
                for atom, provenance in zip(string.atoms, string.provenance)
                if provenance.from_exit
            ]
            assert len(exit_atoms) == 1
            assert exit_atoms[0].predicate == "b"

    def test_recursion_depth(self, tc_program):
        strings = expand(tc_program, "t", 3)
        assert [s.recursion_depth() for s in strings] == [0, 1, 2, 3]

    def test_selection_pushes_constant(self, tc_program):
        strings = expand(tc_program, "t", 2, selection={1: "n0"})
        assert str(strings[0]) == "b(X, n0)"
        assert str(strings[2]) == "a(X, Z_0), a(Z_0, Z_1), b(Z_1, n0)"

    def test_string_count(self, tc_program):
        assert len(expand(tc_program, "t", 7)) == 8


class TestExpandOtherRecursions:
    def test_two_sided_strings(self, two_sided_program):
        strings = expand(two_sided_program, "t", 2)
        assert str(strings[1]) == "a(X, W_0), b(W_0, Z_0), c(Z_0, Y)"
        assert str(strings[2]) == "a(X, W_0), a(W_0, W_1), b(W_1, Z_1), c(Z_1, Z_0), c(Z_0, Y)"

    def test_same_generation_strings_match_example_3_3(self):
        strings = expand(same_generation(), "sg", 2)
        assert str(strings[0]) == "sg0(X, Y)"
        # atom order within a conjunction is irrelevant; compare as sets
        assert {str(a) for a in strings[1].atoms} == {"p(X, W_0)", "sg0(W_0, Z_0)", "p(Y, Z_0)"}
        assert {str(a) for a in strings[2].atoms} == {
            "p(X, W_0)",
            "p(W_0, W_1)",
            "sg0(W_1, Z_1)",
            "p(Z_0, Z_1)",
            "p(Y, Z_0)",
        }

    def test_example_3_4_has_disconnected_d_instance(self):
        strings = expand(example_3_4(), "t", 3)
        deepest = strings[-1]
        d_atoms = [atom for atom in deepest.atoms if atom.predicate == "d"]
        assert len(d_atoms) == 3
        # d(Z) shares its variable with nothing else in the string
        z_atoms = [atom for atom in deepest.atoms if Variable("Z") in atom.variable_set()]
        assert z_atoms == [parse_atom("d(Z)")]

    def test_requires_exit_rule(self):
        program = parse_program("t(X, Y) :- a(X, Z), t(Z, Y).")
        with pytest.raises(ProgramError):
            expand(program, "t", 2)

    def test_requires_linear_recursion(self):
        program = parse_program("t(X, Y) :- t(X, Z), t(Z, Y). t(X, Y) :- b(X, Y).")
        with pytest.raises(ProgramError):
            expand(program, "t", 2)


class TestExpansionSemantics:
    """The union of the expansion strings defines the recursive relation."""

    def test_prefix_program_matches_fixpoint_on_small_data(self, tc_program, chain_db):
        strings = expand(tc_program, "t", 8)
        prefix = expansion_prefix_program(strings, "t")
        via_prefix = seminaive_evaluate(prefix, chain_db)["t"].rows()
        via_fixpoint = seminaive_evaluate(tc_program, chain_db)["t"].rows()
        assert via_prefix == via_fixpoint

    def test_each_string_is_sound(self, tc_program, chain_db):
        relations = {r.name: r for r in chain_db.relations()}
        full = seminaive_evaluate(tc_program, chain_db)["t"].rows()
        for string in expand(tc_program, "t", 5):
            assert string.evaluate(relations) <= full


class TestStringEvaluate:
    """``ExpansionString.evaluate``: a string's relation, projected onto its distinguished variables."""

    @pytest.fixture
    def relations(self):
        return {
            "a": Relation("a", 2, [(1, 2), (2, 3), (3, 4)]),
            "b": Relation("b", 2, [(4, 5), (2, 9)]),
            "p": Relation("p", 1, [(2,), (3,)]),
        }

    def test_projection_follows_the_distinguished_order(self, relations):
        string = ExpansionString((Variable("Y"), Variable("X")), (parse_atom("a(X, Z)"), parse_atom("b(Z, Y)")))
        assert string.evaluate(relations) == {(5, 3), (9, 1)}

    def test_unbound_output_variable_becomes_none(self, relations):
        string = ExpansionString((Variable("X"), Variable("Missing")), (parse_atom("p(X)"),))
        assert string.evaluate(relations) == {(2, None), (3, None)}

    def test_bindings_restrict_and_fill_distinguished_variables(self, relations):
        string = ExpansionString((Variable("X"), Variable("Y")), (parse_atom("a(X, Z)"), parse_atom("b(Z, Y)")))
        stats = EvaluationStats()
        assert string.evaluate(relations, stats, bindings={Variable("X"): 3}) == {(3, 5)}
        assert stats.unrestricted_lookups == 0
        assert stats.tuples_produced == 1
        unary = ExpansionString((Variable("X"), Variable("Q")), (parse_atom("p(X)"),))
        assert unary.evaluate(relations, bindings={Variable("Q"): 7}) == {(2, 7), (3, 7)}

    def test_missing_relation_gives_no_answers(self, relations):
        string = ExpansionString((Variable("X"),), (parse_atom("ghost(X)"),))
        assert string.evaluate(relations) == set()


class TestExpandGeneral:
    def test_agrees_with_expand_on_single_rule_programs(self, tc_program):
        specialized = {str(s) for s in expand(tc_program, "t", 3)}
        general = expand_general(tc_program, "t", max_applications=4)
        # expand_general uses generic distinguished names X1, X2; compare shapes
        assert len(general) >= 4
        for string in general:
            predicates = [atom.predicate for atom in string.atoms]
            assert predicates.count("b") == 1
            assert set(predicates) <= {"a", "b"}

    def test_appendix_a_reduction_strings_have_e_chains(self):
        """Lemma A.2: e/b instances form chains ending at the third distinguished variable."""
        reduction = one_sidedness_reduction(appendix_a_p(), "p")
        strings = expand_general(reduction.target, reduction.target_predicate, max_applications=5)
        assert strings, "the generalized expansion should produce EDB-only strings"
        x3 = Variable("X3")
        for string in strings:
            e_atoms = [a for a in string.atoms if a.predicate == reduction.chain_predicate]
            b_atoms = [a for a in string.atoms if a.predicate == reduction.witness_predicate]
            assert len(b_atoms) == 1
            if not e_atoms:
                # no applications of the new recursive rule: b holds X3 directly
                assert b_atoms[0].args == (x3,)
                continue
            # exactly one e atom ends at X3, and the b atom starts the chain
            ends = [a for a in e_atoms if a.args[1] == x3]
            assert len(ends) == 1
            chain_heads = {a.args[0] for a in e_atoms}
            assert b_atoms[0].args[0] in chain_heads

    def test_max_strings_cap(self, tc_program):
        strings = expand_general(tc_program, "t", max_applications=10, max_strings=3)
        assert len(strings) == 3
