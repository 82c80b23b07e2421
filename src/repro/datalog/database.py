"""The extensional database (EDB).

A :class:`Database` maps predicate names to :class:`~repro.datalog.relation.Relation`
objects.  It is the "extent" that defines EDB predicates in Section 2 of the
paper.  Evaluation strategies receive a database plus a program and produce
relations for the IDB predicates; they never mutate the input database unless
explicitly asked to (``materialize``).

Mutation phases
---------------
Every fact-level update goes through :meth:`Database.mutate`, which takes
per-relation deletes and inserts and applies only the rows that actually
change (already-present insertions and absent deletions are filtered out).
A caller that keeps derived state consistent — the materialized view a
:class:`~repro.incremental.session.Session` owns — passes an object with the
four maintenance phases, and :meth:`Database.mutate` calls each once with
``{name: rows}`` maps: ``before_delete``, ``after_delete``,
``before_insert``, ``after_insert``.  A ``before_*`` phase sees the database
before that side is applied, an ``after_*`` phase after it.  Nothing is
registered on the database: a change made without passing the phases — a
fact API called directly, :meth:`Database.add_relation`, or a
:class:`Relation` mutated in place — maintains nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .errors import SchemaError
from .relation import Relation, Row, Value
from .terms import Constant


#: ``{relation name: effective rows}`` — one phase's share of a mutation
Changes = Mapping[str, Tuple[Row, ...]]


def check_arity(name: str, arity: int, rows: Iterable[Row]) -> None:
    """Raise :class:`SchemaError` at the first of ``rows`` whose length is not ``arity``."""
    for row in rows:
        if len(row) != arity:
            raise SchemaError(f"relation {name} has arity {arity}, got tuple of length {len(row)}")


class Database:
    """A mutable collection of named relations."""

    def __init__(self, relations: Optional[Iterable[Relation]] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations or ():
            self.add_relation(relation)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(data: Mapping[str, Iterable[Sequence[Value]]]) -> "Database":
        """Build a database from ``{"pred": [tuple, ...], ...}``.

        Arities are inferred from the first tuple of each predicate; empty
        iterables are not allowed here (use :meth:`declare` for empty
        relations because their arity cannot be inferred).
        """
        database = Database()
        for name, rows in data.items():
            rows = list(rows)
            if not rows:
                raise SchemaError(
                    f"cannot infer arity of empty relation {name}; use Database.declare"
                )
            database.add_relation(Relation(name, len(tuple(rows[0])), rows))
        return database

    @staticmethod
    def from_facts(facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        database = Database()
        for atom in facts:
            database.add_fact_atom(atom)
        return database

    def add_relation(self, relation: Relation) -> None:
        """Register a relation, replacing any previous relation of the same name."""
        self._relations[relation.name] = relation

    def declare(self, name: str, arity: int) -> Relation:
        """Ensure a (possibly empty) relation of the given name and arity exists."""
        existing = self._relations.get(name)
        if existing is not None:
            if existing.arity != arity:
                raise SchemaError(
                    f"relation {name} already declared with arity {existing.arity}, not {arity}"
                )
            return existing
        relation = Relation(name, arity)
        self._relations[name] = relation
        return relation

    def add_fact(self, name: str, row: Sequence[Value]) -> bool:
        """Insert one tuple, creating the relation on first use."""
        relation = self._relations.get(name)
        if relation is None:
            relation = Relation(name, len(tuple(row)))
            self._relations[name] = relation
        return relation.add(row)

    def insert_facts(self, name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Insert many tuples into one relation: :meth:`mutate` with one insert.

        Creates the relation on first use (arity inferred from the first
        tuple).  Returns how many tuples were actually new.
        """
        return len(self.mutate(inserts={name: rows})[1].get(name, ()))

    def remove_fact(self, name: str, row: Sequence[Value]) -> bool:
        """Remove one tuple if present, mirroring :meth:`add_fact`."""
        return self.remove_facts(name, (row,)) == 1

    def remove_facts(self, name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Remove many tuples from one relation: :meth:`mutate` with one delete.

        Unknown relations and absent tuples are no-ops.  Returns how many
        tuples were actually removed.
        """
        return len(self.mutate(deletes={name: rows})[0].get(name, ()))

    def mutate(
        self,
        deletes: Optional[Mapping[str, Iterable[Sequence[Value]]]] = None,
        inserts: Optional[Mapping[str, Iterable[Sequence[Value]]]] = None,
        view=None,
    ) -> Tuple[Dict[str, Tuple[Row, ...]], Dict[str, Tuple[Row, ...]]]:
        """Apply per-relation deletes, then inserts, as one mutation.

        Every insert is validated before anything changes: a tuple whose
        length is not its relation's arity (the stored one, or for a new
        relation the first tuple's) raises :class:`SchemaError` and leaves
        the database untouched, no phase of ``view`` run.  A new relation is
        created on first use.  Deleting from an unknown relation or an absent
        tuple is a no-op.  ``view``'s four phases (see the module docstring)
        run once each, with an empty map for an idle side, and none when
        nothing changes.  Returns the effective ``(deleted, inserted)`` rows
        per relation, duplicates removed, order preserved.
        """
        batches: Dict[str, List[Row]] = {}
        for name, rows in (inserts or {}).items():
            tupled = [tuple(row) for row in rows]
            if tupled:
                relation = self._relations.get(name)
                check_arity(name, relation.arity if relation is not None else len(tupled[0]), tupled)
                batches[name] = tupled
        deleted: Dict[str, Tuple[Row, ...]] = {}
        for name, rows in (deletes or {}).items():
            relation = self._relations.get(name)
            if relation is not None:
                present = tuple(dict.fromkeys(row for row in map(tuple, rows) if row in relation))
                if present:
                    deleted[name] = present
        inserted: Dict[str, Tuple[Row, ...]] = {}
        for name, rows in batches.items():
            relation = self._relations.get(name)
            if relation is None:
                # registered only after every batch validated, so a rejected
                # mutation cannot leave a wrong-arity relation behind
                relation = self._relations[name] = Relation(name, len(rows[0]))
            gone = set(deleted.get(name, ()))
            fresh = tuple(dict.fromkeys(row for row in rows if row not in relation or row in gone))
            if fresh:
                inserted[name] = fresh
        if not deleted and not inserted:
            return deleted, inserted
        if view is not None:
            view.before_delete(self, deleted)
        for name, rows in deleted.items():
            self._relations[name].discard_all(rows)
        if view is not None:
            view.after_delete(self, deleted)
            view.before_insert(self, inserted)
        for name, rows in inserted.items():
            self._relations[name].add_all(rows)
        if view is not None:
            view.after_insert(self, inserted)
        return deleted, inserted

    def add_fact_atom(self, atom: Atom) -> bool:
        """Insert a ground atom as a fact."""
        if not atom.is_ground():
            raise SchemaError(f"fact {atom} is not ground")
        values = tuple(arg.value for arg in atom.args if isinstance(arg, Constant))
        return self.add_fact(atom.predicate, values)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """The relation for ``name``; raises :class:`SchemaError` when unknown."""
        relation = self._relations.get(name)
        if relation is None:
            raise SchemaError(f"relation {name} is not present in the database")
        return relation

    def relation_or_empty(self, name: str, arity: int) -> Relation:
        """The relation for ``name`` or a fresh empty relation of the given arity."""
        relation = self._relations.get(name)
        if relation is not None:
            return relation
        return Relation(name, arity)

    def has_relation(self, name: str) -> bool:
        """``True`` when the database contains a relation called ``name``."""
        return name in self._relations

    def names(self) -> Set[str]:
        """All relation names."""
        return set(self._relations)

    def relations(self) -> List[Relation]:
        """All relations (no particular order)."""
        return list(self._relations.values())

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    # ------------------------------------------------------------------
    # whole-database operations
    # ------------------------------------------------------------------
    def copy(self) -> "Database":
        """Deep copy: relations are copied, tuples are shared (they are immutable)."""
        return Database(relation.copy() for relation in self._relations.values())

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def active_domain(self) -> Set[Value]:
        """Every value appearing anywhere in the database."""
        domain: Set[Value] = set()
        for relation in self._relations.values():
            for row in relation:
                domain.update(row)
        return domain

    def facts(self) -> List[Atom]:
        """All tuples re-expressed as ground atoms (useful for tests and printing)."""
        result: List[Atom] = []
        for relation in self._relations.values():
            for row in relation:
                result.append(Atom(relation.name, tuple(Constant(v) for v in row)))
        return result

    def merge(self, other: "Database") -> "Database":
        """A new database containing the union of both databases' tuples."""
        merged = self.copy()
        for relation in other.relations():
            target = merged._relations.get(relation.name)
            if target is None:
                merged.add_relation(relation.copy())
            else:
                if target.arity != relation.arity:
                    raise SchemaError(
                        f"cannot merge {relation.name}: arities {target.arity} and {relation.arity} differ"
                    )
                target.add_all(relation.rows())
        return merged

    def __str__(self) -> str:
        parts = ", ".join(sorted(str(r) for r in self._relations.values()))
        return f"Database({parts})"
