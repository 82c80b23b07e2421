"""Evaluation engine: instrumented relational algebra, rule evaluation, fixpoints."""

from .algebra import select, semijoin
from .compile import (
    CompiledRule,
    PlanCache,
    compile_delta_variants,
    compile_rule,
    plan_order,
)
from .domain import Domain
from .instrumentation import (
    EvaluationStats,
    check_deadline,
    evaluation_deadline,
)
from .naive import naive_evaluate, naive_query
from .query import QueryPlan, QueryResult, SelectionQuery, answer, as_selection_query, plan_query
from .seminaive import (
    group_insert_closure,
    overlay_relations,
    propagate_insertions,
    seminaive_evaluate,
    seminaive_query,
)
from .strata import evaluation_strata, strongly_connected_components

__all__ = [
    "CompiledRule",
    "Domain",
    "EvaluationStats",
    "PlanCache",
    "QueryPlan",
    "QueryResult",
    "SelectionQuery",
    "answer",
    "as_selection_query",
    "check_deadline",
    "compile_delta_variants",
    "compile_rule",
    "evaluation_deadline",
    "evaluation_strata",
    "group_insert_closure",
    "naive_evaluate",
    "naive_query",
    "overlay_relations",
    "plan_order",
    "plan_query",
    "propagate_insertions",
    "select",
    "semijoin",
    "seminaive_evaluate",
    "seminaive_query",
    "strongly_connected_components",
]
