"""Materialized views: pinned IDB relations that survive EDB updates.

A :class:`MaterializedView` pins the derived relations of one program and
keeps them tuple-for-tuple equal to from-scratch evaluation while the
underlying database takes insertions and deletions.  Registration chooses a
maintenance strategy the same way the query front door chooses an evaluation
strategy — detection first, then the cheapest sound plan:

* bounded recursions are rewritten to their unfolded nonrecursive form
  (:mod:`repro.optimize.unfold`) and maintained there, so a provably bounded
  view never pays fixpoint maintenance at all — and updates to atoms the
  minimized union dropped are ignored outright, which the equivalence proof
  licenses;
* a view whose maintenance program is nonrecursive uses **counting**
  (per-tuple derivation counts, exact deletions, no rederivation);
* anything still recursive uses **DRed** (delete-and-rederive) for deletions
  and a seeded semi-naive delta round for insertions.

Every decision is recorded as :class:`~repro.optimize.passes.Rewrite`
provenance, surfaced on query results through :class:`ViewProvenance`.

A view's ``plan_cache`` keeps its maintenance prepared for the view's life
(:meth:`~repro.engine.compile.PlanCache._keep`): a steady commit compiles and
resolves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..datalog.database import Changes, Database
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program
from ..engine.compile import PlanCache
from ..engine.instrumentation import EvaluationStats
from ..engine.seminaive import propagate_insertions, seminaive_evaluate
from ..engine.strata import program_strata
from ..optimize.passes import Rewrite
from ..optimize.unfold import apply_unfolding, unfold_bounded
from . import counting, dred

#: strategy names, in the order registration tries them
COUNTING = "counting"
DRED = "dred"


@dataclass
class ViewProvenance:
    """What a view's registration decided, in ``Rewrite`` provenance form."""

    view: str
    strategy: str
    rewrites: List[Rewrite] = field(default_factory=list)

    def fired(self) -> List[str]:
        """Names of the registration steps that rewrote or decided something."""
        return [rewrite.pass_name for rewrite in self.rewrites if rewrite.fired]

    def describe(self) -> str:
        """One line per registration step, mirroring ``OptimizationResult.describe``."""
        return "\n".join(str(rewrite) for rewrite in self.rewrites)


class MaterializedView:
    """One program's IDB relations, maintained incrementally under updates."""

    def __init__(
        self,
        name: str,
        program: Program,
        database: Database,
    ) -> None:
        self.name = name
        self.program = program
        self.rewrites: List[Rewrite] = []
        self.plan_cache = PlanCache()
        #: cumulative maintenance work (insert/delete propagation only): each
        #: round's ``last_stats``, added as the round's last phase ends
        self.stats = EvaluationStats()
        #: maintenance work of the current round; its owner resets it before
        #: each :meth:`~repro.datalog.database.Database.mutate` it drives
        self.last_stats = EvaluationStats()
        self.plan_program = self._unfold(program, database)
        #: predicate names whose updates can change this view: the
        #: *maintenance* program's, so updates to an atom the unfolding
        #: minimization dropped are skipped as provably irrelevant (immutable
        #: for the view's lifetime; checked per relation and phase, so precomputed)
        self._relevant = frozenset(self.plan_program.predicates())
        self.strategy = DRED if self._has_recursion(self.plan_program) else COUNTING
        detail = (
            "per-tuple derivation counts; deletions are exact decrements"
            if self.strategy == COUNTING
            else "delete-and-rederive; insertions ride a seeded semi-naive delta round"
        )
        self.rewrites.append(Rewrite("maintenance-strategy", True, f"{self.strategy} — {detail}"))
        self.counting: Optional[counting.CountingState] = None
        #: DRed's overestimate, handed from ``before_delete`` to ``after_delete``
        self._doomed: Optional[Dict[str, Set[Row]]] = None
        if self.strategy == COUNTING:
            self.derived, self.counting = counting.initialize_counts(
                self.plan_program, database, EvaluationStats(), self.plan_cache
            )
        else:
            self.derived = seminaive_evaluate(self.plan_program, database)

    # ------------------------------------------------------------------
    # registration-time rewriting
    # ------------------------------------------------------------------
    def _unfold(self, program: Program, database: Database) -> Program:
        """Rewrite every provably bounded recursion away before maintaining.

        A predicate with base facts stored under its own name is skipped: the
        boundedness witness equates the recursion with its rule expansions
        only, so base facts feeding the recursive rule would make the
        unfolded form unsound.
        """
        current = program
        for predicate in program.stratum_order():
            if not current.is_recursive_predicate(predicate):
                continue
            if not current.is_single_linear_recursion(predicate):
                continue
            if database.has_relation(predicate) and len(database.relation(predicate)):
                continue
            definition = unfold_bounded(current, predicate)
            if definition is None:
                continue
            current = apply_unfolding(current, definition)
            self.rewrites.append(
                Rewrite(
                    "view-unfolding",
                    True,
                    f"{predicate} is bounded (witness depth {definition.witness_depth}); "
                    f"maintained as {len(definition.rules)} nonrecursive rule(s)",
                )
            )
        return current

    @staticmethod
    def _has_recursion(program: Program) -> bool:
        return any(recursive for _group, _rules, _base, recursive in program_strata(program))

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def predicates(self) -> Set[str]:
        """The IDB predicates this view materializes."""
        return set(self.derived)

    @property
    def provenance(self) -> ViewProvenance:
        """The registration decisions as ``Rewrite`` provenance."""
        return ViewProvenance(self.name, self.strategy, list(self.rewrites))

    def relation(self, predicate: str) -> Relation:
        """The materialized relation for ``predicate``."""
        return self.derived[predicate]

    def snapshot(self) -> Dict[str, Relation]:
        """Immutable frozen handles for every materialized relation, in O(1).

        Each handle is a copy-on-write :meth:`~repro.datalog.relation.Relation.freeze`:
        readers holding the snapshot keep seeing exactly this instant's tuples
        while maintenance continues mutating the live relations underneath.
        Callers that need a consistent *epoch* must hold the session lock
        across :meth:`~repro.incremental.session.Session.collect_touched` and
        this call.
        """
        return {predicate: relation.freeze() for predicate, relation in self.derived.items()}

    def _deltas(self, changes: Changes, strategy: str) -> Changes:
        """The rows of ``changes`` this view's ``strategy`` phase maintains (empty: nothing to do)."""
        if self.strategy != strategy:
            return {}
        return {name: rows for name, rows in changes.items() if name in self._relevant}

    # ------------------------------------------------------------------
    # maintenance phases (run by ``Database.mutate(deletes, inserts, view)``);
    # each records its work into the round's ``last_stats``
    # ------------------------------------------------------------------
    def before_delete(self, database: Database, deletes: Changes) -> None:
        """Pre-mutation deletion phase (the DRed overestimate needs old state)."""
        deltas = self._deltas(deletes, DRED)
        if deltas:
            self._doomed = dred.overestimate_deletions(
                self.plan_program, database, self.derived, deltas, self.last_stats, self.plan_cache
            )

    def after_delete(self, database: Database, deletes: Changes) -> None:
        """Post-mutation deletion phase (counting decrements / DRed remove+rederive)."""
        deltas = self._deltas(deletes, COUNTING)
        if deltas:
            counting.apply_deletions(
                self.plan_program, database, self.derived, self.counting, deltas, self.last_stats, self.plan_cache
            )
        elif self._doomed is not None:
            doomed, self._doomed = self._doomed, None
            dred.apply_deletions(self.plan_program, database, self.derived, doomed, self.last_stats, self.plan_cache)

    def before_insert(self, database: Database, inserts: Changes) -> None:
        """Pre-mutation insertion phase (all counting work happens here)."""
        deltas = self._deltas(inserts, COUNTING)
        if deltas:
            counting.apply_insertions(
                self.plan_program, database, self.derived, self.counting, deltas, self.last_stats, self.plan_cache
            )

    def after_insert(self, database: Database, inserts: Changes) -> None:
        """Post-mutation insertion phase (the DRed/semi-naive delta round).

        The round's last phase, so it also adds the round's work to the
        cumulative :attr:`stats`.
        """
        stats = self.last_stats
        deltas = self._deltas(inserts, DRED)
        if deltas:
            stats.start_timer()
            propagate_insertions(self.plan_program, database, self.derived, deltas, stats, self.plan_cache)
            stats.stop_timer()
        self.stats.merge(stats)

    def __str__(self) -> str:
        sizes = ", ".join(f"{p}={len(r)}" for p, r in sorted(self.derived.items()))
        return f"MaterializedView({self.name}, {self.strategy}, {sizes or 'empty'})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self!s}>"
