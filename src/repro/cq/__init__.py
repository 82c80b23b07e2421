"""Conjunctive-query machinery: expansion strings, containment, minimization, memoization."""

from .cache import (
    CQCache,
    canonical_key,
    shared_cache,
)
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
    "CQCache",
    "ExpansionString",
    "are_equivalent",
    "canonical_key",
    "find_containment_mapping",
    "has_containment_mapping",
    "is_contained_in",
    "is_minimal",
    "minimize",
    "minimize_union",
    "shared_cache",
    "union_contained_in",
    "union_contains",
    "verify_containment_mapping",
]
