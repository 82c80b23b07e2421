"""Cross-engine differential runner.

Evaluates one generated case (:mod:`repro.testing.generate`) under every
evaluation strategy in the library and checks that they agree tuple for
tuple:

* **the model** — semi-naive evaluation's IDB relations must be the least
  model :func:`repro.testing.oracle.fixpoint` computes, which shares no
  planner, index or delta loop with the engine;
* **naive vs. semi-naive** — full IDB relations must be identical;
* **magic sets** — query answers must equal the answers selected from the
  semi-naive model;
* **counting** — likewise, whenever the program has the chain shape the
  counting implementation covers; cases outside its scope (no chain shape,
  IDB-dependent exit rules, queries not binding column 0, cyclic reachable
  data) are recorded as skipped rather than silently dropped, and the test
  suite asserts each engine actually runs on a healthy share of the batch;
* **optimized** — the :func:`repro.engine.query.answer` front door with
  ``strategy="auto"``, i.e. the full rewrite-then-evaluate path (bounded
  unfolding, one-sided schema, counting, magic, semi-naive), runs on every
  case; whatever strategy it picks must reproduce the reference answers;
* **interpreted / kernel / columnar** — semi-naive evaluation re-run with
  the engine runtime pinned to each of its execution modes: the reference
  step machine (:func:`repro.testing.reference.step_machine`), generated
  kernels (the product's executor), both with batching off, and the
  columnar batch executor forced on (:func:`repro.testing.reference.batching`)
  so it runs even where the product's profit score picks the kernels.  All
  modes must produce identical IDB relations tuple for tuple, *and* the
  :class:`EvaluationStats` totals of the pinned modes must match exactly —
  the batch executor reproduces the interpreted engine's instrumentation
  contract, not just its model — which is what licenses shipping the fast
  paths as the default runtime.
  Each pinned run also rides with an armed EXPLAIN ANALYZE recorder
  (:class:`repro.obs.profile.ProfileRecorder`): the resulting profile must
  report the same stats totals, and its dispatch provenance (kernel vs.
  interpreted, columnar vs. kernel-loop group decisions) must stay inside
  the set of paths the pinned mode can actually take.

A mismatch produces a report carrying the offending seed, so any failure is
reproducible with ``generate_case(seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..baselines.counting import counting_query, counting_scope_reason
from ..baselines.magic import magic_query
from ..datalog.errors import EvaluationError
from ..datalog.relation import Row
from ..engine.instrumentation import EvaluationStats, query_trace
from ..engine.naive import naive_evaluate
from ..engine.query import answer
from ..engine.seminaive import DECISION_NO_TEMPLATE, seminaive_evaluate
from ..obs.profile import ProfileRecorder, QueryProfile
from . import oracle
from .generate import DifferentialCase
from .reference import DECISION_COLUMNAR_OFF, DECISION_FORCED, batching, step_machine

@dataclass
class DifferentialReport:
    """Outcome of running one case through every engine."""

    case: DifferentialCase
    #: engine name -> "ok" or "skipped: <reason>"
    engines: Dict[str, str] = field(default_factory=dict)
    #: engine name -> the concrete strategy it reported (front-door engines)
    strategies: Dict[str, str] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"{self.case.name} ({self.case.description}): {status}"


def _profile_mismatches(
    engine: str, columnar: bool, profile: QueryProfile, totals: Dict[str, float]
) -> List[str]:
    """Check one mode's EXPLAIN ANALYZE profile against the pinned run.

    The profile is the user-facing account of what the engine did; if it
    disagrees with the instrumentation totals or claims a dispatch path the
    pinned mode cannot take, the observability layer is lying about the
    engine and the differential batch must fail.
    """
    problems: List[str] = []

    if profile.stats is None:
        return [f"{engine}: profile carries no EvaluationStats"]
    profile_totals = profile.stats.as_dict()
    profile_totals.pop("elapsed_seconds", None)
    if profile_totals != totals:
        drifted = sorted(
            key
            for key in set(profile_totals) | set(totals)
            if profile_totals.get(key) != totals.get(key)
        )
        problems.append(
            f"{engine}: profile stats diverge from pinned totals ({', '.join(drifted)})"
        )

    # Dispatch provenance: each pinned mode can only reach a known subset of
    # execution paths.  Each row executor must claim only itself;
    # the non-columnar modes must report the batch executor as switched off;
    # the forced-columnar mode must either run the batch executor (detail
    # "forced") or explain why the group had no batch template.
    allowed = {"interpreted"} if engine == "interpreted" else {"kernel"}
    dispatches = {plan.dispatch for plan in profile.plans}
    if not dispatches <= allowed:
        problems.append(
            f"{engine}: profile reports dispatches {sorted(dispatches - allowed)} "
            f"outside the mode's reachable set {sorted(allowed)}"
        )
    if not columnar and not profile.plans and totals.get("lookups", 0):
        # outside the batch executor every lookup flows through a compiled
        # plan, so lookups without a recorded plan mean a missing hook
        problems.append(f"{engine}: lookups recorded but the profile has no plans")

    for decision in profile.strata:
        if not columnar:
            if decision.dispatch != "kernel-loop" or decision.detail != DECISION_COLUMNAR_OFF:
                problems.append(
                    f"{engine}: stratum {decision.stratum} decision "
                    f"{decision.dispatch!r}/{decision.detail!r}; expected "
                    f"kernel-loop/{DECISION_COLUMNAR_OFF!r} with the executor off"
                )
        elif decision.dispatch == "columnar":
            if decision.detail != DECISION_FORCED:
                problems.append(
                    f"{engine}: columnar stratum {decision.stratum} detail "
                    f"{decision.detail!r}; forced mode must report {DECISION_FORCED!r}"
                )
        elif decision.detail != DECISION_NO_TEMPLATE:
            problems.append(
                f"{engine}: stratum {decision.stratum} fell back to the kernel loop "
                f"with detail {decision.detail!r}; forced mode only falls back for "
                f"{DECISION_NO_TEMPLATE!r}"
            )

    return problems


def run_differential(case: DifferentialCase) -> DifferentialReport:
    """Evaluate ``case`` under all engines and diff the results."""
    report = DifferentialReport(case)
    program, database, query = case.program, case.database, case.query

    naive_derived = naive_evaluate(program, database)
    semi_derived = seminaive_evaluate(program, database)
    report.engines["naive"] = "ok"
    report.engines["seminaive"] = "ok"

    model = oracle.fixpoint(program, {relation.name: relation.rows() for relation in database.relations()})
    report.engines["oracle"] = "ok"
    for predicate in sorted(program.idb_predicates()):
        model_rows = model.get(predicate, set())
        semi_rows = semi_derived[predicate].rows() if predicate in semi_derived else set()
        if model_rows != semi_rows:
            report.mismatches.append(
                f"{predicate}: oracle model={len(model_rows)} vs seminaive={len(semi_rows)} tuples "
                f"(oracle-only sample {sorted(model_rows - semi_rows, key=repr)[:5]}, "
                f"seminaive-only sample {sorted(semi_rows - model_rows, key=repr)[:5]})"
            )

    predicates = set(naive_derived) | set(semi_derived)
    for predicate in sorted(predicates):
        naive_rows = naive_derived[predicate].rows() if predicate in naive_derived else set()
        semi_rows = semi_derived[predicate].rows() if predicate in semi_derived else set()
        if naive_rows != semi_rows:
            only_naive = sorted(naive_rows - semi_rows)[:5]
            only_semi = sorted(semi_rows - naive_rows)[:5]
            report.mismatches.append(
                f"{predicate}: naive={len(naive_rows)} vs seminaive={len(semi_rows)} tuples "
                f"(naive-only sample {only_naive}, seminaive-only sample {only_semi})"
            )

    # The engine runtime's execution modes must agree with the default run
    # above (whatever mode the process runs under): interpreted step machine,
    # generated kernels, and the columnar batch executor forced past the
    # adaptive planner.  Beyond the tuple-for-tuple model check, the pinned
    # modes' instrumentation totals
    # must be identical — the fast paths reproduce the interpreted engine's
    # accounting, so a drifting counter is a bug even when the model agrees.
    mode_stats: Dict[str, Dict[str, float]] = {}
    for engine, kernels, batch in (
        ("interpreted", False, "off"),
        ("kernel", True, "off"),
        ("columnar", True, "force"),
    ):
        stats = EvaluationStats()
        recorder = ProfileRecorder(str(query), trace_id=f"diff-{engine}-{case.name}")
        with step_machine(not kernels), batching(batch):
            # arm the EXPLAIN ANALYZE recorder around the same evaluation the
            # tuple/stats checks use: the profile must be a faithful account
            # of the run it rode along with, not a separate re-execution
            with query_trace(recorder):
                mode_derived = seminaive_evaluate(program, database, stats)
        totals = stats.as_dict()
        totals.pop("elapsed_seconds", None)
        mode_stats[engine] = totals
        report.engines[engine] = "ok"
        profile = recorder.build(strategy=f"seminaive[{engine}]", stats=stats)
        report.mismatches.extend(_profile_mismatches(engine, batch == "force", profile, totals))
        for predicate in sorted(set(semi_derived) | set(mode_derived)):
            semi_rows = semi_derived[predicate].rows() if predicate in semi_derived else set()
            mode_rows = mode_derived[predicate].rows() if predicate in mode_derived else set()
            if mode_rows != semi_rows:
                only_mode = sorted(mode_rows - semi_rows, key=repr)[:5]
                only_semi = sorted(semi_rows - mode_rows, key=repr)[:5]
                report.mismatches.append(
                    f"{engine}: {predicate}: {len(mode_rows)} vs seminaive={len(semi_rows)} tuples "
                    f"({engine}-only sample {only_mode}, seminaive-only sample {only_semi})"
                )
    reference_stats = mode_stats["interpreted"]
    for engine, totals in mode_stats.items():
        if totals != reference_stats:
            drifted = sorted(
                key
                for key in set(totals) | set(reference_stats)
                if totals.get(key) != reference_stats.get(key)
            )
            details = ", ".join(
                f"{key}: {engine}={totals.get(key)} vs interpreted={reference_stats.get(key)}"
                for key in drifted
            )
            report.mismatches.append(f"{engine}: stats drift vs interpreted ({details})")

    if query.predicate in semi_derived:
        reference: Set[Row] = query.select(semi_derived[query.predicate].rows())
    else:
        reference = set()

    if query.bound_columns():
        magic = magic_query(program, database, query)
        report.engines["magic"] = "ok"
        if magic.answers != reference:
            report.mismatches.append(
                f"magic: {len(magic.answers)} answers vs reference {len(reference)} "
                f"(magic-only sample {sorted(magic.answers - reference)[:5]}, "
                f"reference-only sample {sorted(reference - magic.answers)[:5]})"
            )
    else:
        report.engines["magic"] = "skipped: no bound column"

    scope_reason = counting_scope_reason(program, query.predicate, query.bound_columns())
    if scope_reason:
        report.engines["counting"] = f"skipped: {scope_reason}"
    else:
        try:
            counting = counting_query(program, database, query)
        except EvaluationError as error:
            report.engines["counting"] = f"skipped: {error}"
        else:
            report.engines["counting"] = "ok"
            if counting.answers != reference:
                report.mismatches.append(
                    f"counting: {len(counting.answers)} answers vs reference {len(reference)} "
                    f"(counting-only sample {sorted(counting.answers - reference)[:5]}, "
                    f"reference-only sample {sorted(reference - counting.answers)[:5]})"
                )

    # The optimizer front door runs on every case: whatever strategy the
    # rewrites select (unfolded, one-sided schema, counting, magic,
    # semi-naive) must agree with the reference answers.
    optimized = answer(program, database, query, strategy="auto")
    report.engines["optimized"] = "ok"
    report.strategies["optimized"] = optimized.strategy
    if optimized.answers != reference:
        report.mismatches.append(
            f"optimized ({optimized.strategy}): {len(optimized.answers)} answers vs "
            f"reference {len(reference)} "
            f"(optimized-only sample {sorted(optimized.answers - reference)[:5]}, "
            f"reference-only sample {sorted(reference - optimized.answers)[:5]})"
        )

    return report


def run_batch(cases) -> Tuple[List[DifferentialReport], Dict[str, int]]:
    """Run many cases; returns the reports plus per-engine "ok" run counts."""
    reports = [run_differential(case) for case in cases]
    coverage: Dict[str, int] = {}
    for report in reports:
        for engine, status in report.engines.items():
            if status == "ok":
                coverage[engine] = coverage.get(engine, 0) + 1
    return reports, coverage
