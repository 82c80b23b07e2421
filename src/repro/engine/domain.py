"""The interned value domain — dense int codes for every stored value.

Fixpoint evaluation spends most of its time hashing and comparing tuples:
probe keys into indexes, derived rows into ``seen`` sets, delta rows into
buffers.  With arbitrary user values (strings, floats, mixed tuples) every
one of those operations re-hashes Python objects.  A :class:`Domain` interns
each distinct value to a dense ``int`` once, at the boundary where relations
enter the engine, so the entire fixpoint — index keys, equality checks, set
membership — runs on machine-int tuples; the codes are decoded back to the
original user values only when derived relations leave the engine (the
``QueryResult`` / ``Session`` boundary).

Interning preserves set semantics exactly: two values receive the same code
precisely when Python equality (the same equality the plain tuple-set storage
uses) considers them equal, and the decoder returns the first-seen
representative, just as ``set.add`` keeps the first-inserted element.

The ``REPRO_INTERN`` environment variable (``off``/``0``/``false``/``no``)
disables interning — the differential harness uses it, together with
``REPRO_KERNELS``, to assert interpreted == kernel == interned results tuple
for tuple.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional

from ..datalog.relation import Relation, Row, Value
from .compile import AtomStep, CompiledRule
from .flags import EngineFlag

__all__ = [
    "Domain",
    "domain_for",
    "encode_program_relations",
    "engine_relations",
    "intern_plan",
    "intern_plans",
    "interning_enabled",
    "interning_mode",
    "set_interning_enabled",
]

#: the ``REPRO_INTERN`` switch (see :mod:`repro.engine.flags`)
INTERN_FLAG = EngineFlag("REPRO_INTERN")


def interning_enabled() -> bool:
    """``True`` when the fixpoint engines should evaluate over interned ints."""
    return INTERN_FLAG.enabled()


def set_interning_enabled(enabled: Optional[bool]) -> None:
    """Force interning on/off; ``None`` restores the ``REPRO_INTERN`` switch."""
    INTERN_FLAG.set(enabled)


def interning_mode(enabled: Optional[bool]):
    """Temporarily force interning on or off (differential-testing hook)."""
    return INTERN_FLAG.mode(enabled)


class Domain:
    """A bidirectional value ↔ dense-int interner."""

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: Dict[Value, int] = {}
        self._values: List[Value] = []

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def intern(self, value: Value) -> int:
        """The dense code for ``value``, allocating one on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def intern_row(self, row: Row) -> Row:
        """The row with every value replaced by its code."""
        intern = self.intern
        return tuple(intern(value) for value in row)

    def encode_relation(self, relation: Relation) -> Relation:
        """An int-row copy of ``relation`` (same name and arity)."""
        intern = self.intern
        return Relation.from_valid_rows(
            relation.name,
            relation.arity,
            {tuple(map(intern, row)) for row in relation.rows()},
        )

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, code: int) -> Value:
        """The original value behind ``code``."""
        return self._values[code]

    def decode_row(self, row: Row) -> Row:
        """The row with every code replaced by its original value."""
        values = self._values
        return tuple(values[code] for code in row)

    def decode_relation(self, relation: Relation) -> Relation:
        """A user-value copy of an int-row ``relation``."""
        getter = self._values.__getitem__
        return Relation.from_valid_rows(
            relation.name,
            relation.arity,
            {tuple(map(getter, row)) for row in relation.rows()},
        )

    # ------------------------------------------------------------------
    # persistence (the durable storage layer's dictionary hooks)
    # ------------------------------------------------------------------
    def export_values(self, start: int = 0) -> List[Value]:
        """The interned values with codes ``>= start``, in code order.

        The storage layer persists the dictionary incrementally: a WAL
        record carries exactly the values its batch interned (``start`` =
        the dictionary size before encoding the batch), and a snapshot
        carries the whole dictionary (``start = 0``).
        """
        return self._values[start:]

    def extend_values(self, values: Iterable[Value]) -> None:
        """Re-register persisted values in code order (the recovery path).

        Each value receives the next dense code, exactly as the original
        :meth:`intern` calls did; a value that is already interned would
        shift every later code, so it raises :class:`ValueError` — recovery
        treats that as a corrupt dictionary, not a soft condition.
        """
        for value in values:
            code = len(self._values)
            existing = self._codes.setdefault(value, code)
            if existing != code:
                raise ValueError(
                    f"domain value {value!r} is already interned at code {existing}"
                )
            self._values.append(value)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._codes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({len(self._values)} values)"


#: relation → (mutation version at scan time, all-int verdict).  Memoizes
#: the :func:`domain_for` scan so repeated evaluations over the same
#: relations (a query stream, the serving layer, the differential harness)
#: pay it once.  Keyed on the relation's ``version`` counter, so *every*
#: effective mutation invalidates — including the len-preserving ones the
#: previous row-count key missed (a stale verdict was safe either way, but
#: the counter makes the cache exact); weak keys let dropped relations
#: leave the cache.
_int_only_cache: "weakref.WeakKeyDictionary[Relation, tuple]" = weakref.WeakKeyDictionary()


def _relation_int_only(relation: Relation) -> bool:
    cached = _int_only_cache.get(relation)
    version = relation.version
    if cached is not None and cached[0] == version:
        return cached[1]
    verdict = all(type(value) is int for row in relation.rows() for value in row)
    _int_only_cache[relation] = (version, verdict)
    return verdict


def domain_for(program, database) -> Optional[Domain]:
    """A fresh :class:`Domain` when interning is enabled *and* would help.

    When every value stored under the program's predicates is already a
    machine int, the encoding is the identity map: the fixpoint would hash
    exactly the same ints, and the encode/decode passes would be pure
    overhead.  Such databases (most benchmark graph workloads) evaluate raw;
    the first non-int value anywhere makes the whole evaluation interned.
    """
    if not interning_enabled():
        return None
    for name in program.predicates():
        if database.has_relation(name) and not _relation_int_only(database.relation(name)):
            return Domain()
    return None


def encode_program_relations(program, database, domain: Domain) -> Dict[str, Relation]:
    """Int-row relations for every program predicate stored in ``database``.

    Only predicates the program can actually read are encoded — rules mention
    nothing else, so unrelated relations never pay the interning pass.

    The encoding is rebuilt per evaluation call by design: caching encoded
    *rows* across calls requires invalidation on every mutation (unlike the
    :func:`_relation_int_only` verdict, which is safe when stale).
    ``Relation.version`` now makes such a cache sound; it is left unbuilt
    because the serving layer (:mod:`repro.service`) already amortizes
    repeated evaluations at a higher level — the epoch result cache — where
    one hit skips the entire evaluation, not just the encode pass.
    """
    return {
        name: domain.encode_relation(database.relation(name))
        for name in program.predicates()
        if database.has_relation(name)
    }


def engine_relations(program, database):
    """``(domain, name → relation)`` for one evaluation over ``database``.

    The shared entry boundary of the fixpoint engines and the counting
    baseline: pick the interning decision (:func:`domain_for`), then hand
    back either the encoded relation map or the raw stored relations.
    """
    domain = domain_for(program, database)
    if domain is not None:
        return domain, encode_program_relations(program, database, domain)
    return None, {relation.name: relation for relation in database.relations()}


def intern_plan(plan: CompiledRule, domain: Domain) -> CompiledRule:
    """``plan`` with its embedded constants replaced by their domain codes.

    A compiled plan bakes rule constants into probe signatures and head
    projections; evaluating it against encoded relations requires those
    constants in code space too.  Everything structural (join order, slots,
    checks) carries over unchanged, so instrumentation counts are identical.
    """
    steps = tuple(
        AtomStep(
            step.atom_index,
            step.predicate,
            tuple((position, domain.intern(value)) for position, value in step.const_cols),
            step.bound_cols,
            step.check_cols,
            step.store_cols,
        )
        for step in plan.steps
    )
    head_ops = tuple(
        (True, domain.intern(value)) if is_const else (is_const, value)
        for is_const, value in plan.head_ops
    )
    return CompiledRule(
        plan.rule,
        plan.order,
        steps,
        head_ops,
        plan.producible,
        plan.initial_slots,
        plan.slot_count,
        plan.inputs,
    )


def intern_plans(plans, domain: Optional[Domain]):
    """Intern a batch of plans; passthrough when ``domain`` is ``None``."""
    if domain is None:
        return plans
    return [intern_plan(plan, domain) for plan in plans]
