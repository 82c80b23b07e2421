"""Conjunctive-query machinery: expansion strings, containment, minimization."""

from .containment import (
    are_equivalent,
    find_containment_mapping,
    has_containment_mapping,
    is_contained_in,
    union_contained_in,
    union_contains,
    verify_containment_mapping,
)
from .minimize import is_minimal, minimize, minimize_union
from .strings import AtomProvenance, ExpansionString

__all__ = [
    "AtomProvenance",
    "ExpansionString",
    "are_equivalent",
    "find_containment_mapping",
    "has_containment_mapping",
    "is_contained_in",
    "is_minimal",
    "minimize",
    "minimize_union",
    "union_contained_in",
    "union_contains",
    "verify_containment_mapping",
]
