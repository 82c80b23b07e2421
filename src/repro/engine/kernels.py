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

The ``REPRO_KERNELS`` environment variable (``off``/``0``/``false``/``no``)
is the escape hatch: it forces every plan back onto the interpreted
evaluator, which is what the differential harness uses to assert
interpreted == kernel results tuple for tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
            for j, (is_const, value) in enumerate(step.key_ops):
                if is_const:
                    env[f"K{i}_{j}"] = value
        else:
            w(body + f"scan{i} = rels[{i}].rows()")
            if i >= plan.inputs:
                w(body + f"nscan{i} = len(scan{i})")

    depth = body
    for i, step in enumerate(plan.steps):
        counted = i >= plan.inputs
        if step.probe_columns:
            parts = [
                (f"K{i}_{j}" if is_const else f"s{value}")
                for j, (is_const, value) in enumerate(step.key_ops)
            ]
            key = parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"
            w(depth + f"rows{i} = get{i}({key}, _E)")
            if counted:
                w(depth + f"_lk += 1; _ex += len(rows{i})")
        else:
            w(depth + f"rows{i} = scan{i}")
            if counted:
                w(depth + f"_lk += 1; _ur += 1; _ex += nscan{i}")
        w(depth + f"for row{i} in rows{i}:")
        depth += "    "
        for position, earlier in step.check_cols:
            w(depth + f"if row{i}[{position}] != row{i}[{earlier}]:")
            w(depth + "    continue")
        for position, slot in step.store_cols:
            w(depth + f"s{slot} = row{i}[{position}]")

    if project:
        parts = []
        for j, (is_const, value) in enumerate(plan.head_ops):
            if is_const:
                env[f"H{j}"] = value
                parts.append(f"H{j}")
            else:
                parts.append(f"s{value}")
    else:
        parts = [f"s{i}" for i in range(plan.slot_count)]
    emitted = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    w(depth + f"out_add({emitted})")

    w(body + "if stats is not None:")
    w(body + "    stats.lookups += _lk")
    w(body + "    stats.unrestricted_lookups += _ur")
    w(body + "    stats.tuples_examined += _ex")
    w(body + "return out")
    return "\n".join(lines) + "\n", env


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
    code = _code_cache.get(source)
    if code is None:
        code = compile(source, f"<kernel {'eval' if project else 'join'}>", "exec")
        _code_cache[source] = code
    namespace = dict(env)
    exec(code, namespace)  # noqa: S102 - the source is generated above, not user input
    kernel = namespace["_kernel"]
    kernel.__kernel_source__ = source
    if key is not None:
        if len(_function_cache) >= _FUNCTION_CACHE_LIMIT:
            _function_cache.clear()
        _function_cache[key] = kernel
    return kernel


def kernel_source(plan, project: bool = True) -> str:
    """The generated source of one of ``plan``'s kernels (debugging aid)."""
    source, _env = _emit(plan, project)
    return source
