"""Tests for containment mappings (Definition 2.1 / Lemma 2.1) and CQ minimization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import (
    ExpansionString,
    are_equivalent,
    find_containment_mapping,
    is_contained_in,
    is_minimal,
    minimize,
    minimize_union,
    union_contained_in,
    union_contains,
    verify_containment_mapping,
)
from repro.datalog import parse_atom
from repro.datalog.relation import Relation
from repro.datalog.terms import Constant, Variable
from repro.expansion import expand
from repro.workloads import random_pairs, transitive_closure


def string(head_vars, *atom_texts) -> ExpansionString:
    return ExpansionString(
        tuple(Variable(v) for v in head_vars),
        tuple(parse_atom(text) for text in atom_texts),
    )


class TestContainmentMappings:
    def test_identity_mapping_exists(self):
        s = string("XY", "a(X, Z)", "b(Z, Y)")
        mapping = find_containment_mapping(s, s)
        assert mapping is not None
        assert verify_containment_mapping(mapping, s, s)

    def test_longer_string_maps_to_shorter_by_collapsing(self):
        shorter = string("XY", "a(X, Z)", "b(Z, Y)")
        longer = string("XY", "a(X, Z0)", "a(Z0, Z1)", "b(Z1, Y)")
        # the shorter maps into the longer (so the longer's relation is contained in the shorter's)?
        # No: a(X,Z0), b(Z1,Y) do not chain in the shorter image unless Z0=Z1; the correct
        # direction for transitive-closure strings is: no containment either way.
        assert find_containment_mapping(shorter, longer) is None
        assert find_containment_mapping(longer, shorter) is None

    def test_distinguished_variables_are_pinned(self):
        swapped = string("XY", "a(Y, X)")
        original = string("XY", "a(X, Y)")
        assert find_containment_mapping(original, swapped) is None

    def test_redundant_atom_maps_away(self):
        redundant = string("XY", "a(X, Y)", "a(X, W)")
        minimal = string("XY", "a(X, Y)")
        mapping = find_containment_mapping(redundant, minimal)
        assert mapping is not None
        assert verify_containment_mapping(mapping, redundant, minimal)

    def test_constants_must_match(self):
        with_constant = string("X", "a(X, 1)")
        with_other = string("X", "a(X, 2)")
        assert find_containment_mapping(with_constant, with_other) is None
        assert find_containment_mapping(with_constant, with_constant) is not None

    def test_buys_strings_from_the_paper(self):
        # l(X,Y) c(Y)  vs  k(X,W0) l(W0,Y) c(Y) c(Y): the first does NOT map to
        # the second (it would need l(X, ...) with X distinguished).
        first = string("XY", "likes(X, Y)", "cheap(Y)")
        second = string("XY", "knows(X, W0)", "likes(W0, Y)", "cheap(Y)", "cheap(Y)")
        assert find_containment_mapping(first, second) is None
        # but the duplicated cheap(Y) maps onto the single one
        duplicated = string("XY", "likes(X, Y)", "cheap(Y)", "cheap(Y)")
        assert find_containment_mapping(duplicated, first) is not None


class TestSemanticAgreement:
    """Lemma 2.1: containment mappings characterise relation containment."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_containment_mapping_implies_relation_containment(self, seed):
        rng = random.Random(seed)
        relations = {
            "a": Relation("a", 2, random_pairs(12, 5, seed=seed)),
            "b": Relation("b", 2, random_pairs(8, 5, seed=seed + 1)),
        }
        strings = expand(transitive_closure(), "t", 3)
        for smaller in strings:
            for larger in strings:
                if is_contained_in(smaller, larger):
                    assert smaller.evaluate(relations) <= larger.evaluate(relations)

    def test_equivalence_is_reflexive_and_symmetric(self):
        s = string("XY", "a(X, Z)", "b(Z, Y)")
        duplicated = string("XY", "a(X, Z)", "a(X, Z)", "b(Z, Y)")
        assert are_equivalent(s, s)
        assert are_equivalent(s, duplicated)
        assert are_equivalent(duplicated, s)

    def test_one_way_containment_is_not_equivalence(self):
        general = expand(transitive_closure(), "t", 2)[1]  # a(X, Z_0), b(Z_0, Y)
        pinned = {variable: Constant(7) for variable in general.nondistinguished_variables()}
        specialised = ExpansionString(
            general.distinguished, tuple(atom.substitute(pinned) for atom in general.atoms)
        )
        assert is_contained_in(specialised, general)
        assert not is_contained_in(general, specialised)
        assert not are_equivalent(general, specialised)
        assert not are_equivalent(specialised, general)


class TestUnionContainment:
    def test_union_contains_single_disjunct(self):
        strings = expand(transitive_closure(), "t", 3)
        assert union_contains(strings, strings[2])
        assert union_contained_in(strings[:2], strings)

    def test_union_does_not_contain_deeper_string(self):
        strings = expand(transitive_closure(), "t", 4)
        deepest = strings[-1]
        assert not union_contains(strings[:-1], deepest)


class TestMinimize:
    def test_removes_duplicate_atoms(self):
        redundant = string("XY", "a(X, Y)", "a(X, Y)")
        assert len(minimize(redundant).atoms) == 1

    def test_removes_subsumed_atom(self):
        redundant = string("XY", "a(X, Y)", "a(X, W)")
        minimized = minimize(redundant)
        assert minimized.atoms == (parse_atom("a(X, Y)"),)

    def test_keeps_necessary_atoms(self):
        chain = string("XY", "a(X, Z)", "b(Z, Y)")
        assert minimize(chain).atoms == chain.atoms
        assert is_minimal(chain)

    def test_minimization_preserves_semantics(self):
        relations = {
            "a": Relation("a", 2, [(1, 2), (2, 3), (1, 4)]),
            "b": Relation("b", 2, [(3, 5), (4, 6)]),
        }
        redundant = string("XY", "a(X, Z)", "a(X, W)", "b(Z, Y)")
        minimized = minimize(redundant)
        assert minimized.evaluate(relations) == redundant.evaluate(relations)
        assert len(minimized.atoms) < len(redundant.atoms)

    def test_minimize_union_drops_subsumed_strings(self):
        specific = string("XY", "a(X, Z)", "b(Z, Y)", "a(X, W)")
        general = string("XY", "a(X, Z)", "b(Z, Y)")
        kept = minimize_union([specific, general])
        assert len(kept) == 1
        assert are_equivalent(kept[0], general)

    def test_minimize_union_keeps_incomparable_strings(self):
        strings = expand(transitive_closure(), "t", 3)
        assert len(minimize_union(list(strings))) == len(strings)
