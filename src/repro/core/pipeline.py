"""The complete detection pipeline suggested by Theorem 3.4.

Theorem 3.2 makes detecting "equivalent to a one-sided recursion" undecidable
in general, but Section 3 identifies a decidable subclass and a complete
procedure for it:

1. remove recursively redundant predicates from the recursive rule
   (the [Nau89b] optimization, reproduced in :mod:`repro.core.redundancy`);
2. check uniform (un)boundedness;
3. apply the Theorem 3.1 test to the optimized recursion.

For a uniformly unbounded recursion with a single linear recursive rule, no
repeated nonrecursive predicates and no recursively redundant predicates,
Theorem 3.4 guarantees that failing the Theorem 3.1 test means *no* uniformly
equivalent one-sided definition exists — so on that subclass the procedure is
complete, not merely sound.

:func:`detect_one_sided` packages the procedure and reports which guarantees
apply to its verdict.  Since the optimizer layer landed, the procedure is
literally a composition of the analysis passes of :mod:`repro.optimize` —
redundancy removal, boundedness detection, Theorem 3.1 classification — so
the detection pipeline and the query-time optimizer share one code path;
this module only adds the Theorem 3.4 completeness bookkeeping on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..datalog.rules import Program
from ..optimize.passes import Optimizer, detection_passes
from .classify import SidednessReport
from .redundancy import RedundancyRemoval


@dataclass
class DetectionOutcome:
    """The verdict of the complete detection pipeline for one predicate."""

    predicate: str
    #: the input program
    original: Program
    #: the program after redundancy removal (used for the classification)
    optimized: Program
    #: what redundancy removal did
    redundancy: Optional[RedundancyRemoval]
    #: the Theorem 3.1 report on the optimized program
    report: Optional[SidednessReport]
    #: ``True`` when the optimized recursion is one-sided (Theorem 3.1)
    one_sided: bool
    #: ``True`` when the recursion is uniformly bounded (then any equivalent
    #: nonrecursive union is trivially evaluable and sidedness is moot)
    uniformly_bounded: Optional[bool]
    #: ``True`` when Theorem 3.4's hypotheses hold, so a negative verdict is a
    #: proof that no uniformly equivalent one-sided definition exists
    verdict_is_complete: bool
    #: human-readable notes accumulated along the way
    notes: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        verdict = "one-sided" if self.one_sided else "not one-sided"
        completeness = "complete" if self.verdict_is_complete else "sound only"
        return f"{self.predicate}: {verdict} ({completeness}) — {'; '.join(self.notes)}"


def detect_one_sided(program: Program, predicate: str) -> DetectionOutcome:
    """Run the redundancy-removal + Theorem 3.1 pipeline for ``predicate``.

    The procedure is the analysis prefix of the optimizer: the
    :func:`~repro.optimize.passes.detection_passes` chain (redundancy
    removal, boundedness, classification) runs through a shared
    :class:`~repro.optimize.passes.Optimizer`, and this function adds the
    Theorem 3.4 completeness verdict to the collected evidence.
    """
    result = Optimizer(detection_passes()).run(program, predicate)
    notes: List[str] = list(result.notes)

    if result.out_of_scope:
        return DetectionOutcome(
            predicate=predicate,
            original=program,
            optimized=program,
            redundancy=None,
            report=None,
            one_sided=False,
            uniformly_bounded=None,
            verdict_is_complete=False,
            notes=notes,
        )

    redundancy = result.redundancy
    assert redundancy is not None  # the redundancy pass always runs in scope
    residual_redundant = bool(redundancy.theorem_3_3_candidates) and not redundancy.changed
    verdict_is_complete = (
        not result.repeated_nonrecursive
        and result.uniformly_bounded is False
        and not residual_redundant
    ) or result.one_sided
    if verdict_is_complete and not result.one_sided:
        notes.append(
            "Theorem 3.4 applies: no one-sided definition is uniformly equivalent to this recursion"
        )

    return DetectionOutcome(
        predicate=predicate,
        original=program,
        optimized=result.optimized,
        redundancy=redundancy,
        report=result.report,
        one_sided=result.one_sided,
        uniformly_bounded=result.uniformly_bounded,
        verdict_is_complete=verdict_is_complete,
        notes=notes,
    )
