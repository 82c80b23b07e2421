"""Columnar execution — set-at-a-time joins for the fixpoint engines.

The generated kernels (:mod:`repro.engine.kernels`) made the *per-row* cost
of a delta round as small as Python allows: one dict probe, one tuple build,
one set add per derivation.  The remaining waste is structural — a frontier
row is re-dispatched through the whole loop even when thousands of rows share
the same join key.  This module removes that waste by executing whole delta
rounds *set-at-a-time*: ``_GroupExecutor`` runs a recursive stratum's delta
iteration over *partitioned* deltas.  The delta is grouped by join key once
per round, each partition meets its probe bucket once, and derivations
accumulate into per-key sets — turning ``len(partition) × len(bucket)`` row
visits into a handful of C-level set operations.

Instrumentation contract
------------------------
The batch executor reproduces :class:`EvaluationStats` accounting *exactly*:
a partition of ``m`` frontier rows probing a bucket of ``b`` rows contributes
``m`` lookups and ``m*b`` examined tuples — the same totals as ``m``
row-at-a-time probes, just summed in one step — and produced counts are the
per-plan deduplicated head sets, exactly as the kernels record them.  The
differential harness pins interpreted == kernel == columnar stats totals on
every program family.

The product decides per stratum (:func:`repro.engine.seminaive.batch_decision`):
the executor measures the initial delta's partition fan-out and the probe
views' bucket fan-out, and the stratum falls back to the kernel loop when
partitions are too skinny to amortize the batch machinery (chains).  Tests
force either side with :func:`repro.testing.reference.batching`, so the batch
path is exercised on workloads far too small to profit from it.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter
from typing import Dict, Optional, Set, Tuple

from ..datalog.relation import Row
from .instrumentation import active_profile


# ----------------------------------------------------------------------
# the batch delta-round executor
# ----------------------------------------------------------------------
#: batch-plan templates (the delta-variant shapes the executor vectorizes)
_LINEAR = "linear"        # delta scan + one expand probe (+ optional member)
_FILTER = "filter"        # delta scan + one unary membership probe
_TWOSIDED = "twosided"    # delta scan + two expand probes (sg-style)


class _BatchPlan:
    """One compiled delta variant analysed into a vectorizable template.

    ``key_col`` is the delta column the executor partitions by (the expand
    probe's bound slot); ``head_spec`` maps the two head positions onto the
    symbolic slots ``"K"`` (partition key), ``"P"`` (the other delta column)
    and ``"E"``/``"E2"`` (the expand steps' new variables).
    """

    __slots__ = (
        "plan", "delta_predicate", "head", "template", "key_col",
        "expand1", "expand2", "member", "head_spec",
    )

    def __init__(self, plan, delta_predicate, head, template, key_col,
                 expand1, expand2, member, head_spec):
        self.plan = plan
        self.delta_predicate = delta_predicate
        self.head = head
        self.template = template
        self.key_col = key_col
        self.expand1 = expand1      # (predicate, probe position, store position)
        self.expand2 = expand2
        self.member = member        # ("EP"|"EK", predicate, key position, value position)
        self.head_spec = head_spec


def _analyze_plan(plan, occurrence, group_set) -> Optional[_BatchPlan]:
    """Classify a delta variant into a batch template, or ``None``.

    The templates cover linear recursive rules over binary relations — one
    unrestricted delta scan first, then expand/membership probes against
    non-group relations.  Anything else (arity ≠ 2, constants, repeated
    variables, group predicates probed mid-round, >2 probe steps) falls back
    to the kernel loop, which handles the general case at identical stats.
    """
    if not plan.producible or plan.initial_slots:
        return None
    steps = plan.steps
    if not steps or len(steps) > 3:
        return None
    scan = steps[0]
    if (scan.atom_index != occurrence or scan.probe_columns or scan.const_cols
            or scan.check_cols or scan.store_cols != ((0, 0), (1, 1))):
        return None
    if len(plan.head_ops) != 2 or any(is_const for is_const, _ in plan.head_ops):
        return None

    expands = []   # (predicate, key slot, probe position, store position)
    members = []   # AtomStep
    next_store = 2
    for step in steps[1:]:
        if step.predicate in group_set or step.const_cols or step.check_cols:
            return None
        if step.store_cols:
            if (len(step.store_cols) != 1 or len(step.probe_columns) != 1
                    or step.store_cols[0][1] != next_store):
                return None
            (probe_pos,) = step.probe_columns
            is_const, key_slot = step.key_ops[0]
            if is_const:
                return None
            store_pos = step.store_cols[0][0]
            if {probe_pos, store_pos} != {0, 1}:
                return None
            expands.append((step.predicate, key_slot, probe_pos, store_pos))
            next_store += 1
        else:
            members.append(step)

    head_slots = tuple(slot for _is_const, slot in plan.head_ops)
    if head_slots[0] == head_slots[1]:
        return None

    def symbol(slot, key_col):
        if slot == key_col:
            return "K"
        if slot == 1 - key_col:
            return "P"
        if slot == 2:
            return "E"
        if slot == 3:
            return "E2"
        return None

    delta_predicate = scan.predicate
    head = plan.rule.head.predicate

    if len(expands) == 2 and not members:
        (pred1, key1, probe1, store1), (pred2, key2, probe2, store2) = expands
        if {key1, key2} != {0, 1}:
            return None
        key_col = key1
        head_spec = tuple(symbol(slot, key_col) for slot in head_slots)
        if head_spec not in (("E", "E2"), ("E2", "E")):
            return None
        return _BatchPlan(plan, delta_predicate, head, _TWOSIDED, key_col,
                          (pred1, probe1, store1), (pred2, probe2, store2),
                          None, head_spec)

    if len(expands) == 1:
        pred1, key1, probe1, store1 = expands[0]
        if key1 not in (0, 1):
            return None
        key_col = key1
        head_spec = tuple(symbol(slot, key_col) for slot in head_slots)
        if None in head_spec or "E2" in head_spec:
            return None
        member = None
        if members:
            if len(members) > 1:
                return None
            step = members[0]
            if step.probe_columns != (0, 1) or len(step.key_ops) != 2:
                return None
            slots = [slot for _is_const, slot in step.key_ops]
            if any(is_const for is_const, _ in step.key_ops):
                return None
            e_positions = [pos for pos, slot in zip(step.probe_columns, slots) if slot == 2]
            if len(e_positions) != 1:
                return None
            e_pos = e_positions[0]
            other_pos = 1 - e_pos
            other_slot = slots[other_pos]
            if other_slot == 1 - key_col:
                if head_spec != ("E", "P"):
                    return None
                member = ("EP", step.predicate, e_pos, other_pos)
            elif other_slot == key_col:
                member = ("EK", step.predicate, e_pos, other_pos)
            else:
                return None
        return _BatchPlan(plan, delta_predicate, head, _LINEAR, key_col,
                          (pred1, probe1, store1), None, member, head_spec)

    if not expands and len(members) == 1 and len(steps) == 2:
        step = members[0]
        if step.probe_columns != (0,) or len(step.key_ops) != 1:
            return None
        is_const, key_slot = step.key_ops[0]
        if is_const or key_slot not in (0, 1):
            return None
        key_col = key_slot
        head_spec = tuple(symbol(slot, key_col) for slot in head_slots)
        if set(head_spec) != {"K", "P"}:
            return None
        return _BatchPlan(plan, delta_predicate, head, _FILTER, key_col,
                          None, None, ("K1", step.predicate, 0, None), head_spec)

    return None


def build_group_executor(group, delta_plans, relations, derived, current):
    """A ``_GroupExecutor`` for one recursive stratum, or ``None``.

    ``None`` means some delta variant does not fit a batch template (or a
    referenced relation is missing / a group predicate is not binary); the
    caller then runs the ordinary kernel loop.
    """
    if any(derived[predicate].arity != 2 for predicate in group):
        return None
    group_set = set(group)
    batch_plans = []
    for delta_predicate, occurrence, plan in delta_plans:
        analysed = _analyze_plan(plan, occurrence, group_set)
        if analysed is None:
            return None
        for reference in (analysed.expand1, analysed.expand2):
            if reference is not None and reference[0] not in relations:
                return None
        if analysed.member is not None and analysed.member[1] not in relations:
            return None
        batch_plans.append(analysed)
    if not batch_plans:
        return None
    return _GroupExecutor(group, batch_plans, relations, derived, current)


class _GroupExecutor:
    """Partitioned set-at-a-time execution of one stratum's delta iteration.

    State is held column-partitioned: ``derived_parts[p]`` and
    ``current_parts[p]`` map a relation's first column to the set of second
    columns.  Each round partitions every plan's delta by its join key,
    meets each partition with its probe bucket once, accumulates derivations
    into per-key output sets, and merges them into the derived state at the
    round boundary — exactly the rhythm (and exactly the instrumentation) of
    the kernel loop, minus the per-row dispatch.
    """

    #: the score below which the adaptive decision falls back to the kernel
    #: loop (average partition × bucket fan-out ~1 means batching is pure
    #: overhead)
    PROFIT_THRESHOLD = 2.0

    def __init__(self, group, batch_plans, relations, derived, current):
        self.group = list(group)
        self.batch_plans = batch_plans
        #: the stratum's position in evaluation order, stamped by the
        #: semi-naive driver so profile iteration samples can name it
        self.stratum_index = 0
        self.derived = derived
        self.derived_parts = {p: _partition(derived[p].rows()) for p in group}
        # at stratum entry the delta IS the derived state (pre-existing rows
        # plus the base-rule results, both added to each side), so the delta
        # partition is a shallow copy — and because the round boundary only
        # ever *replaces* the current partition while *growing* the derived
        # buckets after the last read, sharing the initial bucket sets is safe
        self.current_parts = {
            p: dict(self.derived_parts[p])
            if len(current[p]) == len(derived[p])
            else _partition(current[p].rows())
            for p in group
        }
        self.sizes = {p: len(current[p]) for p in group}
        self._transposed: Dict[str, Dict] = {}
        # probe views over the non-group relations, built once per fixpoint
        # (EDB relations are static for the group's duration)
        self._views: Dict[Tuple[str, int, int], Dict] = {}
        self._value_sets: Dict[str, Set] = {}
        self._view_sources = relations
        for bp in batch_plans:
            for reference in (bp.expand1, bp.expand2):
                if reference is not None:
                    predicate, probe_pos, store_pos = reference
                    self._view(predicate, probe_pos, store_pos)
            if bp.member is not None and bp.member[0] != "K1":
                _kind, predicate, key_pos, value_pos = bp.member
                self._view(predicate, key_pos, value_pos)
            elif bp.member is not None:
                self._unary_set(bp.member[1])

    def _view(self, predicate, key_pos, value_pos) -> Dict:
        """``key → {values}`` probe view of a non-group relation (cached).

        Built in one pass straight from the row set — the executor's
        relations are probed through exactly one (key, value) column pair
        each, so decomposing into full column vectors first would be pure
        setup cost.
        """
        cache_key = (predicate, key_pos, value_pos)
        view = self._views.get(cache_key)
        if view is None:
            view = {}
            setdefault = view.setdefault
            for row in self._view_sources[predicate].rows():
                key = row[key_pos]
                bucket = setdefault(key, None)
                if bucket is None:
                    view[key] = {row[value_pos]}
                else:
                    bucket.add(row[value_pos])
            self._views[cache_key] = view
        return view

    def _unary_set(self, predicate) -> Set:
        values = self._value_sets.get(predicate)
        if values is None:
            values = {row[0] for row in self._view_sources[predicate].rows()}
            self._value_sets[predicate] = values
        return values

    def _oriented(self, predicate, key_col) -> Dict:
        if key_col == 0:
            return self.current_parts[predicate]
        transposed = self._transposed.get(predicate)
        if transposed is None:
            transposed = {}
            setdefault = transposed.setdefault
            for key, values in self.current_parts[predicate].items():
                for value in values:
                    setdefault(value, set()).add(key)
            self._transposed[predicate] = transposed
        return transposed

    # -- the adaptive decision -------------------------------------------
    def profit_score(self) -> float:
        """The profitability score the batch decision compares with :attr:`PROFIT_THRESHOLD`.

        Batch execution amortizes per-probe overhead across a partition ×
        bucket block; when both fan-outs are ~1 (chains) the blocks are
        single rows and the batch machinery is pure overhead.  The score is
        the largest ``avg partition size × avg probe bucket size`` over the
        group's plans, measured on the initial delta.
        """
        best = 0.0
        for bp in self.batch_plans:
            total = self.sizes.get(bp.delta_predicate, 0)
            if not total:
                continue
            parts = self._oriented(bp.delta_predicate, bp.key_col)
            if not parts:
                continue
            avg_part = total / len(parts)
            if bp.expand1 is not None:
                predicate, probe_pos, store_pos = bp.expand1
                view = self._view(predicate, probe_pos, store_pos)
                relation = self._view_sources[predicate]
                avg_bucket = len(relation) / len(view) if view else 0.0
            else:
                avg_bucket = 1.0
            score = avg_part * avg_bucket
            if score > best:
                best = score
        return best

    # -- the fixpoint ----------------------------------------------------
    def run(self, stats) -> None:
        """Iterate the stratum to fixpoint and write back into ``derived``.

        Reproduces the kernel loop's :class:`EvaluationStats` totals exactly:
        see the per-template passes for the partition-level accounting
        identities.
        """
        group = self.group
        touched = {p: False for p in group}
        # one plan per head predicate (the common case) lets the round-end
        # pass count the plan's produced total while it diffs, saving a
        # whole extra sweep over the output partitions
        plan_counts: Dict[str, int] = {}
        for bp in self.batch_plans:
            plan_counts[bp.head] = plan_counts.get(bp.head, 0) + 1
        profile = active_profile()
        iteration = 0
        while True:
            total = sum(self.sizes[p] for p in group)
            if not total:
                break
            stats.record_iteration()
            stats.record_state(total, total * 2)
            if profile is not None:
                iteration += 1
                round_started = perf_counter()
            round_new: Dict[str, Dict] = {}
            deferred: Dict[str, bool] = {}
            for bp in self.batch_plans:
                if not self.sizes.get(bp.delta_predicate, 0):
                    continue
                defer = plan_counts[bp.head] == 1
                out, produced = self._run_plan(bp, stats, count=not defer)
                if not defer:
                    stats.record_produced(produced)
                deferred[bp.head] = defer
                merged = round_new.get(bp.head)
                if merged is None:
                    round_new[bp.head] = out
                else:
                    merged_get = merged.get
                    for key, values in out.items():
                        existing = merged_get(key)
                        if existing is None:
                            merged[key] = values
                        else:
                            existing.update(values)
            self._transposed.clear()
            for predicate in group:
                fresh = {}
                added = 0
                produced = 0
                derived_parts = self.derived_parts[predicate]
                derived_get = derived_parts.get
                for key, values in round_new.get(predicate, {}).items():
                    produced += len(values)
                    old = derived_get(key)
                    if old is not None:
                        values.difference_update(old)
                        if not values:
                            continue
                        old.update(values)
                    else:
                        derived_parts[key] = values
                    fresh[key] = values
                    added += len(values)
                if deferred.get(predicate):
                    stats.record_produced(produced)
                if added:
                    stats.record_produced(added)
                    touched[predicate] = True
                self.current_parts[predicate] = fresh
                self.sizes[predicate] = added
            if profile is not None:
                profile.record_iteration(
                    self.stratum_index, iteration, total, perf_counter() - round_started
                )
        for predicate in group:
            if touched[predicate]:
                # the partitions were seeded from ``derived`` and only grew:
                # the relation adopts their rows, built once on the way out
                rows: Set[Row] = set()
                update = rows.update
                for key, values in self.derived_parts[predicate].items():
                    update(zip(repeat(key), values))
                self.derived[predicate].replace_rows(rows)

    def _run_plan(self, bp: _BatchPlan, stats, count: bool = True) -> Tuple[Dict, int]:
        """One plan application over its current delta: ``(out, produced)``.

        ``out`` maps head column 0 → set of head column 1 (freshly allocated
        sets only, so callers may merge and diff in place); ``produced`` is
        the size of the plan's deduplicated head set, the figure the kernels
        feed to :meth:`EvaluationStats.record_produced` — or 0 when
        ``count`` is false and the caller counts during its own sweep.

        Accounting identities: the delta scan is 1 unrestricted lookup
        examining all ``n`` delta rows; a partition of ``m`` rows meeting a
        probe bucket of ``b`` rows is ``m`` lookups (every delta row probes
        exactly once per probe step, so those sum to ``n`` per step and are
        hoisted out of the loop) and ``m*b`` examined tuples; a membership
        step is one lookup per (frontier row × bucket row) combination and
        one examined tuple per combination that is present.
        """
        n = self.sizes[bp.delta_predicate]
        parts = self._oriented(bp.delta_predicate, bp.key_col)
        lk = 1 + n      # the unrestricted delta scan, plus one probe per
        ur = 1          # delta row at the first probe step
        ex = n          # the scan examines every delta row
        out: Dict = {}
        out_get = out.get

        if bp.template is _FILTER:
            values = self._unary_set(bp.member[1])
            key_first = bp.head_spec[0] == "K"
            for key, part in parts.items():
                if key not in values:
                    continue
                m = len(part)
                ex += m
                if key_first:
                    existing = out_get(key)
                    if existing is None:
                        out[key] = set(part)
                    else:
                        existing.update(part)
                else:
                    for payload in part:
                        existing = out_get(payload)
                        if existing is None:
                            out[payload] = {key}
                        else:
                            existing.add(key)

        elif bp.template is _TWOSIDED:
            view1 = self._view(*bp.expand1)
            view2 = self._view(*bp.expand2)
            view1_get = view1.get
            view2_get = view2.get
            first_is_e = bp.head_spec[0] == "E"
            for key, part in parts.items():
                bucket = view1_get(key)
                if not bucket:
                    continue
                m = len(part)
                nb = len(bucket)
                ex += m * nb
                lk += m * nb
                reachable: Set = set()
                bucket2_total = 0
                for payload in part:
                    bucket2 = view2_get(payload)
                    if bucket2:
                        bucket2_total += len(bucket2)
                        reachable.update(bucket2)
                ex += nb * bucket2_total
                if not reachable:
                    continue
                keys, values = (bucket, reachable) if first_is_e else (reachable, bucket)
                for left in keys:
                    existing = out_get(left)
                    if existing is None:
                        out[left] = set(values)
                    else:
                        existing.update(values)

        else:  # _LINEAR (with optional membership step)
            view = self._view(*bp.expand1)
            view_get = view.get
            member = bp.member
            if member is None and bp.head_spec == ("E", "P"):
                # the transitive-closure shape — inlined, it is the hottest
                # loop in the module
                for key, part in parts.items():
                    bucket = view_get(key)
                    if not bucket:
                        continue
                    ex += len(part) * len(bucket)
                    for expanded in bucket:
                        existing = out_get(expanded)
                        if existing is None:
                            out[expanded] = set(part)
                        else:
                            existing.update(part)
            elif member is None:
                update = _LINEAR_UPDATES[bp.head_spec]
                for key, part in parts.items():
                    bucket = view_get(key)
                    if not bucket:
                        continue
                    ex += len(part) * len(bucket)
                    update(out, out_get, key, part, bucket)
            elif member[0] == "EP":
                mview_get = self._view(member[1], member[2], member[3]).get
                for key, part in parts.items():
                    bucket = view_get(key)
                    if not bucket:
                        continue
                    m = len(part)
                    nb = len(bucket)
                    ex += m * nb
                    lk += m * nb
                    for expanded in bucket:
                        allowed = mview_get(expanded)
                        if not allowed:
                            continue
                        survivors = part & allowed
                        ex += len(survivors)
                        if not survivors:
                            continue
                        existing = out_get(expanded)
                        if existing is None:
                            out[expanded] = survivors
                        else:
                            existing.update(survivors)
            else:  # "EK"
                mview_get = self._view(member[1], member[2], member[3]).get
                update = _LINEAR_UPDATES[bp.head_spec]
                empty: Set = set()
                for key, part in parts.items():
                    bucket = view_get(key)
                    if not bucket:
                        continue
                    m = len(part)
                    nb = len(bucket)
                    ex += m * nb
                    lk += m * nb
                    passing = [e for e in bucket if key in (mview_get(e) or empty)]
                    ex += m * len(passing)
                    if passing:
                        update(out, out_get, key, part, passing)

        stats.lookups += lk
        stats.unrestricted_lookups += ur
        stats.tuples_examined += ex
        produced = sum(map(len, out.values())) if count else 0
        return out, produced


def _update_ep(out, out_get, key, part, bucket):
    for expanded in bucket:
        existing = out_get(expanded)
        if existing is None:
            out[expanded] = set(part)
        else:
            existing.update(part)


def _update_pe(out, out_get, key, part, bucket):
    for payload in part:
        existing = out_get(payload)
        if existing is None:
            out[payload] = set(bucket)
        else:
            existing.update(bucket)


def _update_ek(out, out_get, key, part, bucket):
    for expanded in bucket:
        existing = out_get(expanded)
        if existing is None:
            out[expanded] = {key}
        else:
            existing.add(key)


def _update_ke(out, out_get, key, part, bucket):
    existing = out_get(key)
    if existing is None:
        out[key] = set(bucket)
    else:
        existing.update(bucket)


def _update_kp(out, out_get, key, part, bucket):
    existing = out_get(key)
    if existing is None:
        out[key] = set(part)
    else:
        existing.update(part)


def _update_pk(out, out_get, key, part, bucket):
    for payload in part:
        existing = out_get(payload)
        if existing is None:
            out[payload] = {key}
        else:
            existing.add(key)


#: head-spec → accumulate function for the linear template
_LINEAR_UPDATES = {
    ("E", "P"): _update_ep,
    ("P", "E"): _update_pe,
    ("E", "K"): _update_ek,
    ("K", "E"): _update_ke,
    ("K", "P"): _update_kp,
    ("P", "K"): _update_pk,
}


def _partition(rows) -> Dict:
    """Rows of a binary relation partitioned by column 0 → set of column 1."""
    parts: Dict = {}
    setdefault = parts.setdefault
    for key, value in rows:
        bucket = setdefault(key, None)
        if bucket is None:
            parts[key] = {value}
        else:
            bucket.add(value)
    return parts
