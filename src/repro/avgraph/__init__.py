"""A/V graphs and full A/V graphs (Sections 2-3, Figures 2-6)."""

from .build import (
    IDENTITY,
    PREDICATE,
    UNIFICATION,
    ArgNode,
    AVGraph,
    Edge,
    Node,
    VarNode,
    build_av_graph,
    build_full_av_graph,
)
from .cycles import (
    ComponentAnalysis,
    analyze_components,
    component_containing_predicate,
    components_with_nonzero_cycles,
)
from .render import describe, to_dot

__all__ = [
    "IDENTITY",
    "PREDICATE",
    "UNIFICATION",
    "ArgNode",
    "AVGraph",
    "ComponentAnalysis",
    "Edge",
    "Node",
    "VarNode",
    "analyze_components",
    "build_av_graph",
    "build_full_av_graph",
    "component_containing_predicate",
    "components_with_nonzero_cycles",
    "describe",
    "to_dot",
]
