"""Generated join kernels — ``exec``-compiled fused loops for compiled plans.

:class:`~repro.engine.compile.CompiledRule` already hoists all planning out
of the fixpoint, but its interpreted :meth:`join` still pays a per-row
machine: a frontier list per step, a ``key_ops`` dispatch per probe, a tuple
concatenation per stored slot and a ``record_lookup`` method call per probe.
This module erases that machinery with code generation: each plan is turned
into Python *source* for one flat nested loop — probe-key construction,
within-atom equality checks, slot stores and head projection fused inline —
and ``exec``-compiled into a closure that runs at the speed of the bytecode
interpreter's tightest loops.

For the delta variant of a transitive-closure rule the generated kernel is
literally::

    def _kernel(rels, initial, stats):
        ...
        for row0 in rows0:          # unrestricted scan of the delta
            s0 = row0[0]
            s1 = row0[1]
            rows1 = get1(s0, _E)    # single dict lookup per probe
            _lk += 1; _ex += len(rows1)
            for row1 in rows1:
                out_add((row1[0], s1))

Instrumentation contract
------------------------
The kernels preserve :meth:`EvaluationStats.record_lookup` accounting
exactly: every probe against a stored relation contributes one lookup (one
*unrestricted* lookup for a scan) and its retrieved rows to
``tuples_examined``, identically to the interpreted path — the counters are
accumulated in locals and flushed once per kernel call, so the Fig. 7/8
restricted/unrestricted accounting and the maintenance counters pin to the
same values with kernels on or off.  A plan whose body references a missing
relation falls back to the interpreted path, which records the
missing-relation lookup at the step where evaluation actually stops.

The exception is a plan's leading ``inputs`` steps
(:func:`~repro.engine.compile.compile_rule`): they read the caller's own
relations — the Figure 9 schema's selection and carry — so the generated loop,
like the interpreted one, walks them without touching the counters.

The Figure 9 schema
-------------------
:func:`build_schema_kernel` emits one function per
:class:`~repro.core.schema.SchemaPlan` from the same step loops: the exit and
init operators, then ``while carry:`` with each known-column pattern's ``f``
under a ``state`` switch, then ``g`` over each pattern's ``seen``.  Operator
locals carry an ``o<k>_`` prefix, one ``.get`` / row set is hoisted per
(stored relation, probe columns), the selection and the carry are walked as
plain tuples with their probe columns compared inline, and ``f`` emits a row
only ``if row not in seen``, adding it to ``seen`` and to the next carry.  The
run flushes its counters — lookups, tuples examined and produced, the peak
state — once, at the end or before re-raising the ``QueryTimeout`` that
:meth:`EvaluationStats.record_iteration` raises at the top of a round.

The ``REPRO_KERNELS`` environment variable (``off``/``0``/``false``/``no``,
read once per process) is the escape hatch: it forces every plan back onto
its step machine (:meth:`CompiledRule.join`'s interpreted path), and the
schema onto its join-per-round loop, which is what the differential harness
uses to assert interpreted == kernel results tuple for tuple.  Neither
executor is its own reference: ``tests/test_compile.py`` holds both, one join
per rule and per delta variant, to :mod:`repro.testing.oracle`, which shares
no planner or index code with them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..datalog.errors import QueryTimeout
from .flags import EngineFlag
from .instrumentation import active_profile

__all__ = [
    "build_kernel",
    "kernel_mode",
    "kernel_source",
    "kernels_enabled",
    "set_kernels_enabled",
]

#: the ``REPRO_KERNELS`` switch (see :mod:`repro.engine.flags`)
KERNELS_FLAG = EngineFlag("REPRO_KERNELS")


def kernels_enabled() -> bool:
    """``True`` when compiled plans should run their generated kernels."""
    return KERNELS_FLAG.enabled()


def set_kernels_enabled(enabled: Optional[bool]) -> None:
    """Force kernels on/off; ``None`` restores the ``REPRO_KERNELS`` switch."""
    KERNELS_FLAG.set(enabled)


def kernel_mode(enabled: Optional[bool]):
    """Temporarily force kernels on or off (differential-testing hook)."""
    return KERNELS_FLAG.mode(enabled)


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
def _tuple(parts: List[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _emit_step(
    w: Callable[[str], None],
    depth: str,
    step,
    i: int,
    prefix: str,
    env: Dict[str, object],
    access: str,
    source: str,
    counted: bool,
) -> str:
    """Emit the row loop of join step ``i`` at ``depth``; returns the loop body's depth.

    ``access`` says how the step reaches its rows: ``"probe"`` calls the hoisted
    index ``.get`` named ``source`` with the probe key, ``"scan"`` walks the
    hoisted row set ``source``, and ``"walk"`` iterates the caller's own rows
    ``source`` with the probe signature checked inline.  A ``counted`` step records
    its lookup (a scan's row count is hoisted as ``n<source>``).  Locals carry
    ``prefix``, so several plans' loops can share one function.
    """
    row = f"{prefix}row{i}"
    key = []
    for j, (is_const, value) in enumerate(step.key_ops):
        if is_const:
            env[f"{prefix}K{i}_{j}"] = value
            key.append(f"{prefix}K{i}_{j}")
        else:
            key.append(f"{prefix}s{value}")
    if access == "probe":
        rows = f"{prefix}rows{i}"
        w(depth + f"{rows} = {source}({key[0] if len(key) == 1 else _tuple(key)}, _E)")
        if counted:
            w(depth + f"_lk += 1; _ex += len({rows})")
        source = rows
    elif counted:
        w(depth + f"_lk += 1; _ur += 1; _ex += n{source}")
    w(depth + f"for {row} in {source}:")
    depth += "    "
    checks = list(zip(step.probe_columns, key)) if access == "walk" else []
    checks += [(position, f"{row}[{earlier}]") for position, earlier in step.check_cols]
    for position, expected in checks:
        w(depth + f"if {row}[{position}] != {expected}:")
        w(depth + "    continue")
    for position, slot in step.store_cols:
        w(depth + f"{prefix}s{slot} = {row}[{position}]")
    return depth


def _head(plan, prefix: str, env: Dict[str, object]) -> str:
    """The expression building ``plan``'s head tuple from its slots."""
    parts = []
    for j, (is_const, value) in enumerate(plan.head_ops):
        if is_const:
            env[f"{prefix}H{j}"] = value
            parts.append(f"{prefix}H{j}")
        else:
            parts.append(f"{prefix}s{value}")
    return _tuple(parts)


def _emit(plan, project: bool) -> Tuple[str, Dict[str, object]]:
    """Source + exec environment for one kernel of ``plan``.

    ``project=True`` emits the *evaluate* kernel (head tuples, deduplicated
    into a set); ``project=False`` the *join* kernel (one slot tuple per
    satisfying assignment, duplicates preserved — the counting maintenance
    layer consumes assignment multiplicities).
    """
    env: Dict[str, object] = {"_E": ()}
    lines: List[str] = ["def _kernel(rels, initial, stats):"]
    w = lines.append
    body = "    "
    w(body + "_lk = 0; _ur = 0; _ex = 0")
    if project:
        w(body + "out = set()")
        w(body + "out_add = out.add")
    else:
        w(body + "out = []")
        w(body + "out_add = out.append")

    initial_count = len(plan.initial_slots)
    if initial_count:
        w(body + ", ".join(f"s{i}" for i in range(initial_count))
          + ("," if initial_count == 1 else "") + " = initial")

    # hoists: one index resolution / scan per step, done once per call (the
    # relations are static for the duration of one rule application)
    for i, step in enumerate(plan.steps):
        if step.probe_columns:
            env[f"COLS{i}"] = step.probe_columns
            w(body + f"get{i} = rels[{i}]._index_for(COLS{i}).get")
        else:
            w(body + f"scan{i} = rels[{i}].rows()")
            if i >= plan.inputs:
                w(body + f"nscan{i} = len(scan{i})")

    depth = body
    for i, step in enumerate(plan.steps):
        counted = i >= plan.inputs
        if step.probe_columns:
            depth = _emit_step(w, depth, step, i, "", env, "probe", f"get{i}", counted)
        else:
            depth = _emit_step(w, depth, step, i, "", env, "scan", f"scan{i}", counted)

    if project:
        emitted = _head(plan, "", env)
    else:
        emitted = _tuple([f"s{i}" for i in range(plan.slot_count)])
    w(depth + f"out_add({emitted})")

    w(body + "if stats is not None:")
    w(body + "    stats.lookups += _lk")
    w(body + "    stats.unrestricted_lookups += _ur")
    w(body + "    stats.tuples_examined += _ex")
    w(body + "return out")
    return "\n".join(lines) + "\n", env


def _emit_schema(plan) -> Tuple[str, Dict[str, object], Tuple[str, ...]]:
    """Source, exec environment and stored predicates of one Figure 9 run of ``plan``.

    ``plan`` is a :class:`~repro.core.schema.SchemaPlan`.  Its operators'
    loops are emitted into one function, each operator's locals under its own
    prefix; the known-pattern chain of the carry is a ``state`` switch.  The
    selection and the carry are walked as plain values, and an operator that
    can produce nothing is left out, as the join-per-round loop skips it too.
    """
    env: Dict[str, object] = {"_E": (), "QueryTimeout": QueryTimeout, "WIDTH": max(1, plan.carry_arity)}
    predicates: List[str] = []
    hoisted: Dict[Tuple[str, Tuple[int, ...]], Tuple[str, str]] = {}
    hoists: List[str] = []
    lines: List[str] = []
    w = lines.append
    operators = list(plan.operators().items())
    states = {known: state for state, (known, _operator) in enumerate(operators)}
    numbered = {id(op): k for k, op in enumerate(plan.compiled_plans())}

    def access(step) -> Tuple[str, str]:
        """One hoisted ``.get`` / row set per (stored relation, probe columns)."""
        found = hoisted.get((step.predicate, step.probe_columns))
        if found is None:
            if step.predicate not in predicates:
                predicates.append(step.predicate)
            relation, n = f"rels[{predicates.index(step.predicate)}]", len(hoisted)
            if step.probe_columns:
                env[f"COLS{n}"] = step.probe_columns
                hoists.append(f"get{n} = {relation}._index_for(COLS{n}).get")
                found = ("probe", f"get{n}")
            else:
                hoists.append(f"scan{n} = {relation}.rows(); nscan{n} = len(scan{n})")
                found = ("scan", f"scan{n}")
            hoisted[step.predicate, step.probe_columns] = found
        return found

    def apply(depth: str, op, carry: str, emit: Callable[[str, str], None]) -> None:
        """``op``'s loops over the selection, ``carry`` and the stored relations."""
        if not op.producible:
            return
        prefix = f"o{numbered[id(op)]}_"
        for i, step in enumerate(op.steps):
            if i < op.inputs:
                depth = _emit_step(w, depth, step, i, prefix, env, "walk", carry if i else "SELECTION", False)
            else:
                depth = _emit_step(w, depth, step, i, prefix, env, *access(step), True)
        emit(depth, _head(op, prefix, env))

    def into_answers(depth: str, head: str) -> None:
        w(depth + f"answers_add({head})")

    def into_carry(state: int, carry: str) -> Callable[[str, str], None]:
        """``carry := f(carry) − seen; seen ∪= carry`` with the difference fused in."""
        def emit(depth: str, head: str) -> None:
            w(depth + f"row = {head}")
            w(depth + f"if row not in seen{state}:")
            w(depth + f"    seen{state}_add(row); {carry}_append(row)")
        return emit

    flush = [
        "stats.lookups += _lk",
        "stats.unrestricted_lookups += _ur",
        "stats.tuples_examined += _ex",
        "stats.tuples_produced += total",
        "if peak > stats.peak_state_tuples:",
        "    stats.peak_state_tuples = peak",
        "if peak * WIDTH > stats.peak_state_columns:",
        "    stats.peak_state_columns = peak * WIDTH",
    ]
    body, loop = "    ", "        "
    w(body + "SELECTION = (selection,)")
    w(body + "_lk = 0; _ur = 0; _ex = 0")
    w(body + "answers = set(); answers_add = answers.add")
    for state in range(len(operators)):
        w(body + f"seen{state} = set(); seen{state}_add = seen{state}.add")
    # 1-3) init carry, seen, ans
    w(body + "carry = []; carry_append = carry.append")
    for op in plan.exits:
        apply(body, op, "", into_answers)
    for op in plan.init:
        apply(body, op, "", into_carry(states[plan.init_known], "carry"))
    w(body + "total = peak = len(carry)")
    if len(operators) > 1:
        w(body + f"state = {states[plan.init_known]}")
    # 4-8) while carry not empty: carry := f(carry) − seen; seen ∪= carry
    w(body + "while carry:")
    w(loop + "try:")
    w(loop + "    stats.record_iteration()")
    w(loop + "except QueryTimeout:")
    for line in flush:
        w(loop + "    " + line)
    w(loop + "    raise")
    w(loop + "after = []; after_append = after.append")
    for state, (_known, (step, known, _finals)) in enumerate(operators):
        depth = loop
        if len(operators) > 1:
            w(loop + f"{'if' if state == 0 else 'elif'} state == {state}:")
            w(loop + f"    state = {states[known]}")
            depth += "    "
        apply(depth, step, "carry", into_carry(states[known], "after"))
    w(loop + "carry = after")
    w(loop + "total += len(carry)")
    w(loop + "if total + len(carry) > peak:")
    w(loop + "    peak = total + len(carry)")
    # 9) ans := g(seen)
    for state, (_known, (_step, _after, finals)) in enumerate(operators):
        for op in finals:
            apply(body, op, f"seen{state}", into_answers)
    for line in flush:
        w(body + line)
    w(body + "return answers")
    header = ["def _schema(rels, selection, stats):", *(body + line for line in hoists)]
    return "\n".join(header + lines) + "\n", env, tuple(predicates)


#: source → compiled code object.  The generated source encodes only the
#: plan's *structure* (constants and column tuples live in the exec
#: environment), so plans recompiled per query — the unfolded evaluator
#: builds fresh plans per selection — reuse one code object per join shape
#: and pay only a cheap ``exec`` to close over their own constants.
_code_cache: Dict[str, object] = {}

#: (source, environment items) → finished kernel function.  One level above
#: the code cache: two plans with the same structure *and* the same embedded
#: constants (the common case for per-query recompiled plans, whose
#: selection constants travel through ``initial`` bindings rather than the
#: environment) share the very same function object.  Cleared wholesale at a
#: size cap so pathological constant churn cannot grow it without bound.
_function_cache: Dict[object, Callable] = {}
_FUNCTION_CACHE_LIMIT = 4096


def build_kernel(plan, project: bool) -> Callable:
    """One generated kernel for ``plan`` (eval when ``project``, else join)."""
    profile = active_profile()
    if profile is not None:
        profile.record_kernel_built(plan)
    source, env = _emit(plan, project)
    try:
        key = (source, tuple(sorted(env.items())))
        kernel = _function_cache.get(key)
    except TypeError:  # an unorderable/unhashable constant: skip this cache
        key = None
        kernel = None
    if kernel is not None:
        return kernel
    kernel = _define(source, env, "_kernel", f"<kernel {'eval' if project else 'join'}>")
    if key is not None:
        if len(_function_cache) >= _FUNCTION_CACHE_LIMIT:
            _function_cache.clear()
        _function_cache[key] = kernel
    return kernel


def build_schema_kernel(plan) -> Tuple[Callable, Tuple[str, ...]]:
    """The generated Figure 9 run of a :class:`~repro.core.schema.SchemaPlan`.

    Returns ``(run, predicates)``: ``run(rels, selection, stats)`` answers the
    query whose constants are the tuple ``selection``, where ``rels`` holds the
    stored relation of each name in ``predicates``, in that order.  ``stats``
    is required; the run records on it what the join-per-round loop would.
    """
    profile = active_profile()
    if profile is not None:
        profile.record_kernel_built(plan)
    source, env, predicates = _emit_schema(plan)
    return _define(source, env, "_schema", "<kernel schema>"), predicates


def _define(source: str, env: Dict[str, object], name: str, filename: str) -> Callable:
    """The function ``name`` that ``source`` defines, closed over ``env``."""
    code = _code_cache.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        _code_cache[source] = code
    namespace = dict(env)
    exec(code, namespace)  # noqa: S102 - the source is generated here, not user input
    function = namespace[name]
    function.__kernel_source__ = source
    return function


def kernel_source(plan, project: bool = True) -> str:
    """The generated source of one of ``plan``'s kernels (debugging aid)."""
    source, _env = _emit(plan, project)
    return source
