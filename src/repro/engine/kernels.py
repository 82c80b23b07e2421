"""Generated join kernels — the executor every compiled plan runs on.

:class:`~repro.engine.compile.CompiledRule` hoists all planning out of the
fixpoint; this module erases the per-row machinery left over with code
generation: each plan is turned into Python *source* for one flat nested
loop — probe-key construction, within-atom equality checks, slot stores and
head projection fused inline — and ``exec``-compiled into a closure that runs
at the speed of the bytecode interpreter's tightest loops.

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
Every probe against a stored relation contributes one lookup (one
*unrestricted* lookup for a scan) and its retrieved rows to
``tuples_examined``, exactly as :meth:`EvaluationStats.record_lookup` would;
the counters are accumulated in locals and flushed once per kernel call.  A
body relation the caller lacks (:meth:`~repro.engine.compile.CompiledRule.resolve`)
gets a kernel that stops at that step and records there one restricted
lookup with nothing examined, once per call reaching it.  A plan's leading
``inputs`` steps read the caller's own relations (the Figure 9 schema's
selection and carry), so they are walked without touching the counters.
CPython nests at most 20 blocks in one function: past :data:`_MAX_LOOPS`
loops, the rest of a body continues in a nested function that shares the
counters through ``nonlocal``.

The Figure 9 schema
-------------------
:meth:`Generated.schema` emits one function per
:class:`~repro.core.schema.SchemaPlan` from the same step loops: the exit and
init operators, then ``while carry:`` with each known-column pattern's ``f``
under a ``state`` switch, then ``g`` over each pattern's ``seen``.  Operator
locals carry an ``o<k>_`` prefix, one ``.get`` / row set is hoisted per
(stored relation, probe columns), the selection and the carry are walked as
plain values with their probe columns compared inline (a one-column carry
holds bare values), and ``f`` emits a row only ``if row not in seen``, adding
it to ``seen`` and to the next carry.  Rounds and counters are flushed once,
at the end; the armed deadline is read once per run and compared at the top
of each round only when there is one, and the flush precedes the
:class:`~repro.datalog.errors.QueryTimeout` that
:meth:`EvaluationStats.record_iteration` then raises.

:data:`EXECUTOR` builds every run, so it is the seam where a test runs a
scope's plans on the reference step machine instead
(:func:`repro.testing.reference.step_machine`).  Both are held to
:mod:`repro.testing.oracle`, which shares no planner or index code with them.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .instrumentation import active_profile, armed_deadline

__all__ = ["EXECUTOR", "Generated"]

#: loops one generated function nests at most: CPython allows 20 blocks, and
#: the Figure 9 run's carry loop is one of them
_MAX_LOOPS = 19


class Generated:
    """The executor: one generated function per plan and missing step, memoized on the plan."""

    #: the dispatch a profile records for a plan this executor ran
    dispatch = "kernel"

    def kernel(self, plan, project: bool, missing: Optional[int] = None) -> Callable:
        """``run(rels, initial, stats)``: head tuples (``project``) or slot tuples."""
        key = project if missing is None else (project, missing)
        kernel = plan._kernels.get(key)
        if kernel is None:
            source, env = _emit(plan, project, missing)
            kernel = plan._kernels[key] = _define(plan, source, env, "_kernel")
        return kernel

    def schema(self, plan, missing: Tuple[str, ...] = ()) -> Callable:
        """``run(rels, selection, stats)`` over ``plan.stored()``, those in ``missing``
        absent; ``stats`` is required."""
        run = plan._runs.get(missing)
        if run is None:
            source, env = _emit_schema(plan, missing)
            run = plan._runs[missing] = _define(plan, source, env, "_schema")
        return run


#: what builds every plan's and schema's run; only a test swaps it
EXECUTOR = Generated()


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
    bare: bool = False,
    walk_counted: bool = False,
) -> str:
    """Emit the row loop of join step ``i`` at ``depth``; returns the loop body's depth.

    ``access`` says how the step reaches its rows: ``"probe"`` calls the hoisted
    index ``.get`` named ``source`` with the probe key, ``"scan"`` walks the
    hoisted row set ``source``, and ``"walk"`` iterates the caller's own rows
    ``source`` with the probe signature checked inline (``bare``: one-column
    rows held as their value, bound straight to their slot).  A ``counted`` step
    records its lookup (a scan's row count is hoisted as ``n<source>``), unless
    the caller counted its lookups once per walk (``walk_counted``) and only the
    examined rows are left to add.  Locals carry ``prefix``, so several plans'
    loops can share one function.
    """
    row, stores = f"{prefix}row{i}", step.store_cols
    if bare and stores:  # a bare row is its one value: the loop binds that slot itself
        row, stores = f"{prefix}s{stores[0][1]}", ()

    def column(position: int) -> str:
        return row if bare else f"{row}[{position}]"

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
            w(depth + ("" if walk_counted else "_lk += 1; ") + f"_ex += len({rows})")
        source = rows
    elif counted:
        w(depth + f"_lk += 1; _ur += 1; _ex += n{source}")
    w(depth + f"for {row} in {source}:")
    depth += "    "
    checks = list(zip(step.probe_columns, key)) if access == "walk" else []
    checks += [(position, column(earlier)) for position, earlier in step.check_cols]
    for position, expected in checks:
        w(depth + f"if {column(position)} != {expected}:")
        w(depth + "    continue")
    for position, slot in stores:
        w(depth + f"{prefix}s{slot} = {column(position)}")
    return depth


def _nest(
    w: Callable[[str], None],
    depth: str,
    loops: List[Tuple[Tuple[str, ...], Callable[..., str]]],
    innermost: List[str],
    parts: List[List[str]],
    counters: str,
) -> None:
    """Write ``loops`` nested from ``depth``, then the ``innermost`` lines.

    A loop is ``(slots bound before it, write(w, depth) -> its body's depth)``.
    Every :data:`_MAX_LOOPS` loops the rest continue in a new function, called
    with the slots bound so far; its lines go to ``parts``, for the kernel to
    define first, and it shares ``counters`` through ``nonlocal``.
    """
    for k, (bound, write) in enumerate(loops):
        if k and k % _MAX_LOOPS == 0:
            call = f"_part{len(parts)}({', '.join(bound)})"
            w(depth + call)
            parts.append([f"    def {call}:", f"        nonlocal {counters}"])
            w, depth = parts[-1].append, "        "
        depth = write(w, depth)
    for line in innermost:
        w(depth + line)


def _head(plan, prefix: str, env: Dict[str, object], bare: bool = False) -> str:
    """The expression building ``plan``'s head tuple from its slots (``bare``: its one value)."""
    parts = []
    for j, (is_const, value) in enumerate(plan.head_ops):
        if is_const:
            env[f"{prefix}H{j}"] = value
            parts.append(f"{prefix}H{j}")
        else:
            parts.append(f"{prefix}s{value}")
    return parts[0] if bare else _tuple(parts)


def _emit(plan, project: bool, missing: Optional[int] = None) -> Tuple[str, Dict[str, object]]:
    """Source + exec environment for one kernel of ``plan``.

    ``project=True`` emits the *evaluate* kernel (head tuples, deduplicated
    into a set); ``project=False`` the *join* kernel (one slot tuple per
    satisfying assignment, duplicates preserved — the counting maintenance
    layer consumes assignment multiplicities).  With ``missing``, the loops
    stop at that step, which records one lookup if any row reaches it.
    """
    env: Dict[str, object] = {"_E": ()}
    lines: List[str] = []
    w = lines.append
    body = "    "
    counters = "_lk, _ur, _ex" if missing is None else "_lk, _ur, _ex, _mk"
    w(body + counters.replace(",", " =") + " = 0")
    if project:
        w(body + "out = set()")
        w(body + "out_add = out.add")
    else:
        w(body + "out = []")
        w(body + "out_add = out.append")

    bound = [f"s{i}" for i in range(len(plan.initial_slots))]
    if bound:
        w(body + ", ".join(bound) + ("," if len(bound) == 1 else "") + " = initial")

    # hoists: one index resolution / scan per step, done once per call (the
    # relations are static for the duration of one rule application)
    loops = []
    for i, step in enumerate(plan.steps[:missing]):
        counted = i >= plan.inputs
        if step.probe_columns:
            env[f"COLS{i}"] = step.probe_columns
            w(body + f"get{i} = rels[{i}]._index_for(COLS{i}).get")
            access = ("probe", f"get{i}")
        else:
            w(body + f"scan{i} = rels[{i}].rows()" + (f"; nscan{i} = len(scan{i})" if counted else ""))
            access = ("scan", f"scan{i}")
        write = partial(_emit_step, step=step, i=i, prefix="", env=env, access=access[0], source=access[1],
                        counted=counted)
        loops.append((tuple(bound), write))
        bound += [f"s{slot}" for _position, slot in step.store_cols]

    if missing is not None:
        innermost = ["_mk = 1"]
    elif project:
        innermost = [f"out_add({_head(plan, '', env)})"]
    else:
        innermost = [f"out_add({_tuple([f's{i}' for i in range(plan.slot_count)])})"]
    parts: List[List[str]] = []
    _nest(w, body, loops, innermost, parts, counters)

    w(body + "if stats is not None:")
    w(body + "    stats.lookups += _lk" + (" + _mk" if missing is not None else ""))
    w(body + "    stats.unrestricted_lookups += _ur")
    w(body + "    stats.tuples_examined += _ex")
    w(body + "return out")
    header = ["def _kernel(rels, initial, stats):", *(line for part in parts for line in part)]
    return "\n".join(header + lines) + "\n", env


def _emit_schema(plan, missing: Tuple[str, ...] = ()) -> Tuple[str, Dict[str, object]]:
    """Source and exec environment of one Figure 9 run of ``plan``.

    ``plan`` is a :class:`~repro.core.schema.SchemaPlan`; the run reads the
    relations of ``plan.stored()`` in that order, of which those named in
    ``missing`` are absent.  Its operators' loops are emitted into one
    function, each operator's locals under its own prefix; the known-pattern
    chain of the carry is a ``state`` switch.  An operator that can produce
    nothing is left out, as the step machine skips it too; one that reads an
    absent relation stops there and records one lookup per application
    reaching it.
    """
    env: Dict[str, object] = {
        "_E": (),
        "DEADLINE": armed_deadline,
        "perf_counter": perf_counter,
        "WIDTH": max(1, plan.carry_arity),
    }
    stored = plan.stored()
    bare = plan.carry_arity == 1
    hoisted: Dict[Tuple[str, Tuple[int, ...]], Tuple[str, str]] = {}
    hoists: List[str] = []
    parts: List[List[str]] = []
    lines: List[str] = []
    w = lines.append
    operators = list(plan.operators().items())
    states = {known: state for state, (known, _operator) in enumerate(operators)}
    numbered = {id(op): k for k, op in enumerate(plan.compiled_plans())}
    counters = "_lk, _ur, _ex" if not missing else "_lk, _ur, _ex, _mk"

    def access_for(step) -> Tuple[str, str]:
        """One hoisted ``.get`` / row set per (stored relation, probe columns)."""
        found = hoisted.get((step.predicate, step.probe_columns))
        if found is None:
            relation, n = f"rels[{stored.index(step.predicate)}]", len(hoisted)
            if step.probe_columns:
                env[f"COLS{n}"] = step.probe_columns
                hoists.append(f"get{n} = {relation}._index_for(COLS{n}).get")
                found = ("probe", f"get{n}")
            else:
                hoists.append(f"scan{n} = {relation}.rows(); nscan{n} = len(scan{n})")
                found = ("scan", f"scan{n}")
            hoisted[step.predicate, step.probe_columns] = found
        return found

    def apply(depth: str, op, carry: str, emit: Callable[..., List[str]]) -> None:
        """``op``'s loops over the selection, ``carry`` and the stored relations."""
        if not op.producible:
            return
        prefix = f"o{numbered[id(op)]}_"
        cut = next((i for i, step in enumerate(op.steps) if i >= op.inputs and step.predicate in missing), None)
        # a walk of the carry that checks nothing probes once per carry row: count that once
        walk_counted = (
            bool(carry) and op.inputs < len(op.steps[:cut]) and op.steps[op.inputs].probe_columns
            and not any(step.probe_columns or step.check_cols for step in op.steps[:op.inputs])
        )
        if walk_counted:
            w(depth + f"_lk += len({carry})")
        loops, bound = [], []
        for i, step in enumerate(op.steps[:cut]):
            if i < op.inputs:  # the selection, then the carry (bare when it is one column)
                access, counted, walk_bare = ("walk", carry if i else "SELECTION"), False, bare and i == 1
            else:
                access, counted, walk_bare = access_for(step), True, False
            write = partial(_emit_step, step=step, i=i, prefix=prefix, env=env, access=access[0],
                            source=access[1], counted=counted, bare=walk_bare, walk_counted=walk_counted and i == op.inputs)
            loops.append((tuple(bound), write))
            bound += [f"{prefix}s{slot}" for _position, slot in step.store_cols]
        _nest(w, depth, loops, ["_mk = 1"] if cut is not None else emit(op, prefix), parts, counters)
        if cut is not None:
            w(depth + "_lk += _mk; _mk = 0")

    def into_answers(op, prefix: str) -> List[str]:
        return [f"answers_add({_head(op, prefix, env)})"]

    def into_carry(state: int, carry: str) -> Callable[..., List[str]]:
        """``carry := f(carry) − seen; seen ∪= carry`` with the difference fused in
        (a bare carry's value is one local already, so it takes no ``row`` alias)."""
        def emit(op, prefix: str) -> List[str]:
            head = _head(op, prefix, env, bare)
            row = head if bare else "row"
            return ([] if bare else [f"row = {head}"]) + [
                f"if {row} not in seen{state}:",
                f"    seen{state}_add({row}); {carry}_append({row})",
            ]

        return emit

    flush = [
        "stats.iterations += rounds",
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
    w(body + counters.replace(",", " =") + " = 0")
    w(body + "deadline = DEADLINE(); rounds = 0")
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
    w(loop + "if deadline is not None and perf_counter() >= deadline:")
    for line in flush:
        w(loop + "    " + line)
    w(loop + "    stats.record_iteration()  # past the deadline: raises QueryTimeout")
    w(loop + "rounds += 1")
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
    header += [line for part in parts for line in part]
    return "\n".join(header + lines) + "\n", env


#: source → compiled code object.  A plan emits its source once (its runs are
#: kept on it); the source encodes only the plan's *structure* (constants live
#: in the exec environment), so plans of one join shape across programs share
#: one code object and pay only a cheap ``exec`` to close over their constants.
_code_cache: Dict[str, object] = {}


def _define(plan, source: str, env: Dict[str, object], name: str) -> Callable:
    """The function ``name`` that ``source`` defines, closed over ``env``, built for ``plan``."""
    profile = active_profile()
    if profile is not None:
        profile.record_kernel_built(plan)
    code = _code_cache.get(source)
    if code is None:
        code = _code_cache[source] = compile(source, f"<kernel {name}>", "exec")
    namespace = dict(env)
    exec(code, namespace)  # noqa: S102 - the source is generated here, not user input
    # taken out of its own globals, so a dropped plan's function is freed without the collector
    function = namespace.pop(name)
    function.__kernel_source__ = source
    return function
