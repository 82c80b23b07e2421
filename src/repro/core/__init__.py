"""The paper's contribution: detection and evaluation of one-sided recursions.

This package contains everything Sections 3 and 4 and the appendices describe:

* :mod:`~repro.core.classify` — Theorem 3.1 detection (one-sided / k-sided),
* :mod:`~repro.core.redundancy` — Theorem 3.3 and the [Nau89b]-style removal,
* :mod:`~repro.core.boundedness` — uniform boundedness for the decidable subclass,
* :mod:`~repro.core.pipeline` — the complete detection procedure (Theorem 3.4),
* :mod:`~repro.core.algorithms` — Figures 7 and 8, transcribed literally,
* :mod:`~repro.core.schema` — the general Figure 9 schema, compiled once per bound-column shape,
* :mod:`~repro.core.proofs` — Lemmas 4.1/4.2 (proof widths, the lossy unary carry),
* :mod:`~repro.core.crossproduct` — the Section 4 [JAN87] rewriting,
* :mod:`~repro.core.reduction` — the Theorem 3.2 / Appendix A construction.

The query processor applying the paper's advice is :func:`repro.engine.query.plan_query`.
"""

from .algorithms import (
    aho_ullman_selection,
    henschen_naqvi_selection,
)
from .boundedness import (
    bounded_prefix_depth,
    is_bounded_empirical,
    is_uniformly_bounded_structural,
    is_uniformly_unbounded_structural,
)
from .classify import (
    SidednessReport,
    classify,
    is_one_sided,
    one_sided_component,
    selection_covers_unbounded_sides,
    structural_sidedness,
)
from .crossproduct import (
    CrossProductRewriting,
    cross_product_rewriting,
    materialize_combined_relation,
)
from .pipeline import DetectionOutcome, detect_one_sided
from .proofs import (
    Proof,
    column_repetition_width,
    find_proof,
    lossy_unary_carry_evaluation,
    max_repetition_width,
)
from .redundancy import (
    RedundancyRemoval,
    implied_by_recursive_atom,
    is_recursively_redundant,
    recursively_redundant_predicates,
    remove_recursively_redundant,
)
from .reduction import (
    ReductionResult,
    extend_database_for_reduction,
    one_sidedness_reduction,
    project_first_two_columns,
    reduce_nonrecursive_program,
)
from .schema import BACKWARD, FORWARD, OneSidedSchema, SchemaPlan, compile_schema, one_sided_query

__all__ = [
    "BACKWARD",
    "FORWARD",
    "CrossProductRewriting",
    "DetectionOutcome",
    "OneSidedSchema",
    "Proof",
    "RedundancyRemoval",
    "ReductionResult",
    "SchemaPlan",
    "SidednessReport",
    "aho_ullman_selection",
    "bounded_prefix_depth",
    "classify",
    "column_repetition_width",
    "compile_schema",
    "cross_product_rewriting",
    "detect_one_sided",
    "extend_database_for_reduction",
    "find_proof",
    "henschen_naqvi_selection",
    "implied_by_recursive_atom",
    "is_bounded_empirical",
    "is_one_sided",
    "is_recursively_redundant",
    "is_uniformly_bounded_structural",
    "is_uniformly_unbounded_structural",
    "lossy_unary_carry_evaluation",
    "materialize_combined_relation",
    "max_repetition_width",
    "one_sided_component",
    "one_sided_query",
    "one_sidedness_reduction",
    "project_first_two_columns",
    "recursively_redundant_predicates",
    "reduce_nonrecursive_program",
    "remove_recursively_redundant",
    "selection_covers_unbounded_sides",
    "structural_sidedness",
]
