"""Memoized containment and minimization over expansion strings.

The backtracking homomorphism search of :mod:`repro.cq.containment` is run by
several independent callers — the boundedness checks re-test whole expansion
prefixes, redundancy removal re-verifies its rewrites, and the unfolding pass
minimizes the same strings the boundedness witness already visited.  Each of
those callers historically started the NP-complete search from scratch, even
when the (string, string) pair had been decided moments earlier.

:class:`CQCache` closes that gap with two LRU stores keyed by *canonical*
forms of the strings:

* a **containment store** mapping canonicalized ``(source, target, pinned)``
  triples to the boolean answer of the mapping search, and
* a **minimization store** mapping a string (exact form, including
  provenance) to its minimized core.

Canonicalization renames every non-pinned variable by first occurrence, so
two strings that differ only in the names of their nondistinguished
variables share one cache entry.  Pinned variables (distinguished plus any
``frozen`` extras) are kept by name because the mapping search requires them
to map to themselves — renaming them would change the question being asked.

A module-level :data:`shared_cache` is used by default; passes and analyses
that want isolation can carry their own instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.terms import Constant, Variable
from .containment import find_containment_mapping
from .minimize import minimize as _minimize_uncached
from .minimize import minimize_union as _minimize_union_uncached
from .strings import ExpansionString

#: key of one canonicalized string: (distinguished names, atom signatures)
CanonicalKey = Tuple[Tuple[str, ...], Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]]


def canonical_atoms(
    string: ExpansionString, pinned: FrozenSet[Variable]
) -> Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]:
    """The atoms of ``string`` with non-pinned variables renamed by first occurrence.

    The result is invariant under any renaming of the non-pinned variables
    that preserves their order of first appearance, which is exactly the
    invariance the containment search has: pinned variables must map to
    themselves, everything else is up for grabs.
    """
    numbering: Dict[Variable, int] = {}
    atom_keys: List[Tuple[str, Tuple[Tuple[str, object], ...]]] = []
    for atom in string.atoms:
        arg_keys: List[Tuple[str, object]] = []
        for arg in atom.args:
            if isinstance(arg, Constant):
                arg_keys.append(("c", arg.value))
            elif arg in pinned:
                arg_keys.append(("p", str(arg)))
            else:
                if arg not in numbering:
                    numbering[arg] = len(numbering)
                arg_keys.append(("v", numbering[arg]))
        atom_keys.append((atom.predicate, tuple(arg_keys)))
    return tuple(atom_keys)


def canonical_key(string: ExpansionString, frozen: Optional[Set[Variable]] = None) -> CanonicalKey:
    """A hashable canonical form of ``string`` (see :func:`canonical_atoms`)."""
    pinned = frozenset(string.distinguished) | frozenset(frozen or ())
    return (
        tuple(str(variable) for variable in string.distinguished),
        canonical_atoms(string, pinned),
    )


class CQCache:
    """An LRU cache for containment verdicts and minimized strings."""

    def __init__(self, maxsize: int = 8192) -> None:
        self.maxsize = maxsize
        self._containment: "OrderedDict[object, bool]" = OrderedDict()
        self._minimized: "OrderedDict[object, ExpansionString]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def _lookup(self, store: "OrderedDict[object, object]", key: object) -> Tuple[bool, object]:
        if key in store:
            store.move_to_end(key)
            self.hits += 1
            return True, store[key]
        self.misses += 1
        return False, None

    def _insert(self, store: "OrderedDict[object, object]", key: object, value: object) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.maxsize:
            store.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # containment
    # ------------------------------------------------------------------
    def has_containment_mapping(
        self,
        source: ExpansionString,
        target: ExpansionString,
        frozen: Optional[Set[Variable]] = None,
    ) -> bool:
        """Memoized ``find_containment_mapping(source, target, frozen) is not None``.

        The key pins ``source``'s distinguished variables plus ``frozen`` —
        the variables the search requires to map to themselves — and
        canonicalizes everything else on both sides, so renamed copies of the
        same question share an entry.
        """
        pinned = frozenset(source.distinguished) | frozenset(frozen or ())
        key = (
            tuple(str(variable) for variable in sorted(pinned)),
            canonical_atoms(source, pinned),
            canonical_atoms(target, pinned),
        )
        found, value = self._lookup(self._containment, key)
        if found:
            return bool(value)
        answer = find_containment_mapping(source, target, frozen) is not None
        self._insert(self._containment, key, answer)
        return answer

    def is_contained_in(self, smaller: ExpansionString, larger: ExpansionString) -> bool:
        """Memoized Lemma 2.1 containment: smaller's relation ⊆ larger's relation."""
        return self.has_containment_mapping(larger, smaller)

    def union_contains(self, covering: Sequence[ExpansionString], string: ExpansionString) -> bool:
        """Memoized [SY80] union containment (one covering disjunct suffices)."""
        return any(self.is_contained_in(string, candidate) for candidate in covering)

    def union_contained_in(
        self, smaller: Sequence[ExpansionString], larger: Sequence[ExpansionString]
    ) -> bool:
        """Memoized per-disjunct union containment check."""
        return all(self.union_contains(larger, string) for string in smaller)

    def are_equivalent(self, first: ExpansionString, second: ExpansionString) -> bool:
        """Memoized conjunctive-query equivalence (containment both ways)."""
        return self.is_contained_in(first, second) and self.is_contained_in(second, first)

    # ------------------------------------------------------------------
    # minimization
    # ------------------------------------------------------------------
    def minimize(
        self, string: ExpansionString, frozen: Optional[Set[Variable]] = None
    ) -> ExpansionString:
        """Memoized :func:`repro.cq.minimize.minimize`.

        Keyed by the exact string (atoms, distinguished *and* provenance —
        the minimized result carries a provenance subset, so strings that
        differ only in provenance must not share an entry).
        """
        key = (
            string.distinguished,
            string.atoms,
            string.provenance,
            frozenset(frozen or ()),
        )
        found, value = self._lookup(self._minimized, key)
        if found:
            assert isinstance(value, ExpansionString)
            return value
        minimized = _minimize_uncached(string, frozen)
        self._insert(self._minimized, key, minimized)
        return minimized

    def minimize_union(self, strings: Iterable[ExpansionString]) -> List[ExpansionString]:
        """Memoized :func:`repro.cq.minimize.minimize_union`.

        The subsumption policy lives in :mod:`repro.cq.minimize`; only the
        per-string minimization and the containment tests are swapped for
        their cached counterparts.
        """
        return _minimize_union_uncached(
            list(strings), minimizer=self.minimize, has_mapping=self.has_containment_mapping
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current store sizes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "containment_entries": len(self._containment),
            "minimized_entries": len(self._minimized),
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._containment.clear()
        self._minimized.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CQCache({self.stats()})"


#: the library-wide default cache (boundedness, redundancy verification and
#: the unfolding pass all share it unless handed a private instance)
shared_cache = CQCache()

