"""repro — a reproduction of "One-Sided Recursions" (Naughton, PODS 1987 / JCSS 1991).

The library implements, from scratch, the deductive-database machinery the
paper builds on (a Datalog engine, conjunctive-query containment, expansion
generation, magic sets, counting) and the paper's own contribution: detection
of one-sided recursions from the full A/V graph (Theorem 3.1), the
redundancy-removal + boundedness pipeline (Theorems 3.3/3.4), the evaluation
schema for ``column = constant`` selections (Figures 7–9), the Lemma 4.1/4.2
separation, the cross-product discussion of Section 4, and the Appendix A
reduction behind Theorem 3.2.

Quick start
-----------
>>> from repro import parse_program, Database, classify, answer
>>> program = parse_program('''
...     t(X, Y) :- a(X, Z), t(Z, Y).
...     t(X, Y) :- b(X, Y).
... ''')
>>> classify(program, "t").is_one_sided
True
>>> db = Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(3, 4)]})
>>> sorted(answer(program, db, "t(1, Y)?").answers)
[(1, 4)]
"""

from .datalog import (
    Atom,
    Constant,
    Database,
    EvaluationError,
    NotOneSidedError,
    ParseError,
    Program,
    ProgramError,
    QueryTimeout,
    Relation,
    ReproError,
    Rule,
    SchemaError,
    Variable,
    parse_atom,
    parse_program,
    parse_query,
    parse_rule,
)
from .faults import FaultAction, FaultPlan, inject as inject_faults
from .engine import (
    EvaluationStats,
    QueryPlan,
    QueryResult,
    SelectionQuery,
    answer,
    naive_evaluate,
    naive_query,
    plan_query,
    seminaive_evaluate,
    seminaive_query,
)
from .avgraph import build_av_graph, build_full_av_graph, describe, to_dot
from .expansion import expand, expand_general, estimate_sidedness
from .core import (
    OneSidedSchema,
    aho_ullman_selection,
    classify,
    detect_one_sided,
    henschen_naqvi_selection,
    is_one_sided,
    one_sided_query,
    one_sidedness_reduction,
    remove_recursively_redundant,
)
from .baselines import counting_query, counting_scope_reason, magic_query
from .optimize import (
    OptimizationResult,
    Optimizer,
    UnfoldedDefinition,
    optimize_program,
    unfold_bounded,
)
from .incremental import MaterializedView, Session, ViewProvenance
from .obs import (
    FlightRecorder,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    ObservabilityServer,
    QueryProfile,
    Span,
    Tracer,
    explain,
)
from .service import (
    DatalogService,
    EpochCache,
    FlushError,
    FlushPolicy,
    RetryExhausted,
    RetryPolicy,
    RobustnessStats,
    ServiceClosed,
    ServiceDegraded,
    ServiceOverloaded,
    ServiceResult,
    ServiceSnapshot,
    ServiceStats,
)
from .storage import DurableStore, StorageConfig, StorageError, StorageStats, is_transient

__version__ = "1.5.0"

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "DatalogService",
    "DurableStore",
    "EpochCache",
    "EvaluationError",
    "EvaluationStats",
    "FaultAction",
    "FaultPlan",
    "FlightRecorder",
    "FlushError",
    "FlushPolicy",
    "MaterializedView",
    "MetricsRegistry",
    "NotOneSidedError",
    "NullRegistry",
    "NullTracer",
    "ObservabilityServer",
    "OneSidedSchema",
    "OptimizationResult",
    "Optimizer",
    "ParseError",
    "Program",
    "ProgramError",
    "QueryProfile",
    "QueryPlan",
    "QueryResult",
    "QueryTimeout",
    "Relation",
    "ReproError",
    "RetryExhausted",
    "RetryPolicy",
    "RobustnessStats",
    "Rule",
    "SchemaError",
    "SelectionQuery",
    "ServiceClosed",
    "ServiceDegraded",
    "ServiceOverloaded",
    "ServiceResult",
    "ServiceSnapshot",
    "ServiceStats",
    "Session",
    "Span",
    "StorageConfig",
    "StorageError",
    "StorageStats",
    "Tracer",
    "UnfoldedDefinition",
    "Variable",
    "ViewProvenance",
    "__version__",
    "aho_ullman_selection",
    "answer",
    "build_av_graph",
    "build_full_av_graph",
    "classify",
    "counting_query",
    "counting_scope_reason",
    "describe",
    "detect_one_sided",
    "estimate_sidedness",
    "expand",
    "explain",
    "expand_general",
    "henschen_naqvi_selection",
    "inject_faults",
    "is_one_sided",
    "is_transient",
    "magic_query",
    "naive_evaluate",
    "naive_query",
    "one_sided_query",
    "one_sidedness_reduction",
    "optimize_program",
    "parse_atom",
    "parse_program",
    "parse_query",
    "parse_rule",
    "plan_query",
    "remove_recursively_redundant",
    "seminaive_evaluate",
    "seminaive_query",
    "to_dot",
    "unfold_bounded",
]
