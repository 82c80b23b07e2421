"""The pass-based program optimizer: rewrite, then evaluate.

The paper's thesis is that *detection enables optimization* — a recursion
proven uniformly bounded (Theorem 3.3) or one-sided (Theorem 3.1) can be
replaced by a dramatically cheaper evaluation.  This module is the layer
where those verdicts stop being reports and start being rewrites: a small
pipeline of passes, each of which inspects the program, optionally rewrites
it, and records what it did as :class:`Rewrite` provenance.

Passes (in their default order):

1. :class:`RedundancyRemovalPass` — drop recursively redundant atoms from
   the recursive rule (Theorem 3.3 + the [Nau89b]-style removal);
2. :class:`BoundednessPass` — decide uniform boundedness for the decidable
   subclass (structural criterion);
3. :class:`SidednessPass` — the Theorem 3.1 classification of the optimized
   recursion;
4. :class:`UnfoldingPass` — when a boundedness witness exists, replace the
   recursion by the minimized nonrecursive union of its expansion strings
   (:mod:`repro.optimize.unfold`), which the compiled engine then evaluates
   recursion-free.

Analysis and optimization share one code path: the complete detection
procedure of :func:`repro.core.pipeline.detect_one_sided` is the first three
passes run through the same :class:`Optimizer`, and the query front door
(:func:`repro.engine.query.answer`) runs the full chain, once per program
(:func:`optimize_program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..cq.containment import union_contained_in
from ..datalog.errors import ProgramError
from ..datalog.rules import Program
from ..expansion.generator import expand
from ..core.boundedness import is_uniformly_bounded_structural
from ..core.classify import SidednessReport, classify
from ..core.redundancy import RedundancyRemoval, remove_recursively_redundant
from ..engine.compile import compiled
from .unfold import MAX_UNFOLD_DEPTH, UnfoldedDefinition, apply_unfolding, unfold_bounded

#: note attached when the definition is outside the decidable subclass
OUT_OF_SCOPE_NOTE = (
    "the definition does not consist of a single linear recursive rule; "
    "Theorem 3.2 makes the general problem undecidable, so only the "
    "structural test on the given rules is reported"
)


@dataclass(frozen=True)
class Rewrite:
    """Provenance for one optimizer pass (did it fire, and what it did)."""

    pass_name: str
    fired: bool
    detail: str

    def __str__(self) -> str:
        status = "fired" if self.fired else "no-op"
        return f"{self.pass_name}: {status} — {self.detail}"


@dataclass
class PassContext:
    """Mutable state threaded through the passes of one optimizer run."""

    predicate: str
    program: Program
    original: Program
    #: ``True`` when the definition is not a single linear recursion, so the
    #: Section 3 machinery does not apply and every pass becomes a no-op
    out_of_scope: bool = False
    redundancy: Optional[RedundancyRemoval] = None
    repeated_nonrecursive: Optional[bool] = None
    uniformly_bounded: Optional[bool] = None
    report: Optional[SidednessReport] = None
    one_sided: bool = False
    unfolded: Optional[UnfoldedDefinition] = None
    #: snapshot of the program just before unfolding replaced the recursion
    pre_unfold_program: Optional[Program] = None
    notes: List[str] = field(default_factory=list)
    rewrites: List[Rewrite] = field(default_factory=list)

    def record(self, pass_name: str, fired: bool, detail: str) -> None:
        """Append one provenance entry."""
        self.rewrites.append(Rewrite(pass_name, fired, detail))


class OptimizationPass:
    """Interface for one optimizer pass."""

    name = "pass"

    def run(self, ctx: PassContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class RedundancyRemovalPass(OptimizationPass):
    """Remove recursively redundant atoms from the recursive rule.

    With ``verify=True`` the rewrite is cross-checked by comparing the
    expansion prefixes of the original and optimized programs (containment
    both ways); a failed check raises
    :class:`~repro.datalog.errors.ProgramError` instead of silently keeping
    an unsound rewrite.
    """

    name = "redundancy-removal"

    def __init__(self, verify: bool = False, verify_depth: int = 2) -> None:
        self.verify = verify
        self.verify_depth = verify_depth

    def run(self, ctx: PassContext) -> None:
        if ctx.out_of_scope:
            return
        removal = remove_recursively_redundant(ctx.program, ctx.predicate)
        ctx.redundancy = removal
        if removal.changed:
            if self.verify:
                self._cross_check(ctx, removal)
            ctx.program = removal.optimized
            removed = ", ".join(str(atom) for atom in removal.removed)
            ctx.notes.append(f"removed recursively redundant atoms: {removed}")
            ctx.record(self.name, True, f"dropped {removed} from the recursive rule")
        else:
            ctx.notes.append("no recursively redundant atoms removed")
            ctx.record(self.name, False, "no recursively redundant atoms")

    def _cross_check(self, ctx: PassContext, removal: RedundancyRemoval) -> None:
        """Expansion prefixes of original and optimized must be equivalent."""
        before = expand(ctx.program, ctx.predicate, self.verify_depth)
        after = expand(removal.optimized, ctx.predicate, self.verify_depth)
        if not (union_contained_in(before, after) and union_contained_in(after, before)):
            raise ProgramError(
                f"redundancy removal for {ctx.predicate} failed its expansion cross-check"
            )


class BoundednessPass(OptimizationPass):
    """Decide uniform boundedness on the decidable subclass (Theorem 3.3)."""

    name = "boundedness-detection"

    def run(self, ctx: PassContext) -> None:
        if ctx.out_of_scope:
            return
        rule = ctx.program.linear_recursive_rule(ctx.predicate)
        repeated = rule.has_repeated_nonrecursive_predicates()
        ctx.repeated_nonrecursive = repeated
        if repeated:
            ctx.notes.append(
                "the recursive rule repeats a nonrecursive predicate, so the Theorem 3.4 "
                "completeness guarantee does not apply"
            )
        uniformly_bounded: Optional[bool] = None
        if not repeated:
            try:
                uniformly_bounded = is_uniformly_bounded_structural(ctx.program, ctx.predicate)
            except ProgramError:
                uniformly_bounded = None
        ctx.uniformly_bounded = uniformly_bounded
        if uniformly_bounded:
            ctx.notes.append(
                "the optimized recursion is uniformly bounded; it is equivalent to a finite "
                "union of conjunctive queries and any selection on it is cheap regardless of sidedness"
            )
            ctx.record(self.name, True, "uniformly bounded (every nonrecursive predicate is recursively redundant)")
        elif uniformly_bounded is False:
            ctx.record(self.name, False, "uniformly unbounded on the decidable subclass")
        else:
            ctx.record(self.name, False, "outside the decidable subclass; boundedness undecided")


class SidednessPass(OptimizationPass):
    """Classify the optimized recursion with the Theorem 3.1 test."""

    name = "sidedness-classification"

    def run(self, ctx: PassContext) -> None:
        if ctx.out_of_scope:
            return
        report = classify(ctx.program, ctx.predicate)
        ctx.report = report
        ctx.one_sided = report.is_one_sided
        ctx.notes.append(report.reason())
        ctx.record(self.name, report.is_one_sided, report.reason())


class UnfoldingPass(OptimizationPass):
    """Replace a provably bounded recursion by its minimized nonrecursive union.

    The witness search goes to ``max_depth`` when the structural criterion
    already proved boundedness (the witness must exist; only its depth is
    unknown) and to the cheaper ``fallback_depth`` when boundedness is
    undecided (repeated predicates, constants in rules) — pass
    ``fallback_depth=None`` to search the full ``max_depth`` in that case
    too, which is what a *forced* unfolding request does.  When the
    structural criterion proved *unboundedness* the search is skipped
    entirely — that is the detection-enables-optimization contract in the
    other direction.
    """

    name = "bounded-unfolding"

    def __init__(self, max_depth: int = MAX_UNFOLD_DEPTH, fallback_depth: Optional[int] = 3) -> None:
        self.max_depth = max_depth
        self.fallback_depth = max_depth if fallback_depth is None else min(fallback_depth, max_depth)

    def run(self, ctx: PassContext) -> None:
        if ctx.out_of_scope:
            ctx.record(self.name, False, "definition out of scope for the expansion procedure")
            return
        if ctx.uniformly_bounded is False:
            ctx.record(self.name, False, "provably unbounded; unfolding cannot apply")
            return
        limit = self.max_depth if ctx.uniformly_bounded else self.fallback_depth
        definition = unfold_bounded(ctx.program, ctx.predicate, limit)
        if definition is None:
            ctx.record(self.name, False, f"no boundedness witness within depth {limit}")
            return
        ctx.pre_unfold_program = ctx.program
        ctx.unfolded = definition
        ctx.program = apply_unfolding(ctx.program, definition)
        ctx.notes.append(
            f"unfolded the bounded recursion into {len(definition.rules)} nonrecursive "
            f"rule(s) (witness depth {definition.witness_depth})"
        )
        ctx.record(
            self.name,
            True,
            f"witness depth {definition.witness_depth}; {len(definition.rules)} minimized string(s)",
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Everything one optimizer run decided, rewrote and recorded.

    Immutable: :func:`optimize_program` hands the same result to every query
    on one program, and each of them publishes it as its provenance.
    """

    predicate: str
    #: the input program
    original: Program
    #: the program after redundancy removal, before any unfolding — the
    #: program the detection verdicts (sidedness, boundedness) are about
    optimized: Program
    #: the final program, with any unfolding applied — the one to evaluate
    program: Program
    out_of_scope: bool
    redundancy: Optional[RedundancyRemoval]
    repeated_nonrecursive: Optional[bool]
    uniformly_bounded: Optional[bool]
    report: Optional[SidednessReport]
    one_sided: bool
    unfolded: Optional[UnfoldedDefinition]
    notes: Tuple[str, ...]
    rewrites: Tuple[Rewrite, ...]

    def fired(self) -> List[str]:
        """Names of the passes that actually rewrote or proved something."""
        return [rewrite.pass_name for rewrite in self.rewrites if rewrite.fired]

    def describe(self) -> str:
        """One line per pass, for reports and the query front door."""
        return "\n".join(str(rewrite) for rewrite in self.rewrites)


#: the passes detect_one_sided composes (analysis only, no unfolding)
def detection_passes(verify_redundancy: bool = False) -> Tuple[OptimizationPass, ...]:
    """The Theorem 3.4 procedure as a pass chain: remove, bound, classify."""
    return (
        RedundancyRemovalPass(verify=verify_redundancy),
        BoundednessPass(),
        SidednessPass(),
    )


def default_passes() -> Tuple[OptimizationPass, ...]:
    """The full rewrite chain used by the query front door."""
    return detection_passes() + (UnfoldingPass(),)


class Optimizer:
    """Run a chain of passes over one predicate's definition."""

    def __init__(self, passes: Optional[Sequence[OptimizationPass]] = None) -> None:
        self.passes: Tuple[OptimizationPass, ...] = (
            tuple(passes) if passes is not None else default_passes()
        )

    def run(self, program: Program, predicate: str) -> OptimizationResult:
        """Apply every pass in order and collect the result."""
        ctx = PassContext(predicate=predicate, program=program, original=program)
        if not program.is_single_linear_recursion(predicate):
            ctx.out_of_scope = True
            ctx.notes.append(OUT_OF_SCOPE_NOTE)
        for optimization_pass in self.passes:
            optimization_pass.run(ctx)
        optimized = ctx.pre_unfold_program if ctx.unfolded is not None else ctx.program
        return OptimizationResult(
            predicate=predicate,
            original=program,
            optimized=optimized,
            program=ctx.program,
            out_of_scope=ctx.out_of_scope,
            redundancy=ctx.redundancy,
            repeated_nonrecursive=ctx.repeated_nonrecursive,
            uniformly_bounded=ctx.uniformly_bounded,
            report=ctx.report,
            one_sided=ctx.one_sided,
            unfolded=ctx.unfolded,
            notes=tuple(ctx.notes),
            rewrites=tuple(ctx.rewrites),
        )


def optimize_program(program: Program, predicate: str) -> OptimizationResult:
    """Run the full default chain over ``predicate``, once per program.

    A program is immutable and the chain reads nothing else, so the result is
    kept on the program (:func:`~repro.engine.compile.compiled`) per predicate
    and every query on it shares one analysis.
    """
    kept = compiled(program).optimized
    result = kept.get(predicate)
    if result is None:
        result = kept[predicate] = Optimizer().run(program, predicate)
    return result
