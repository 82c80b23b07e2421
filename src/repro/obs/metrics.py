"""A hand-rolled, stdlib-only metrics registry with Prometheus exposition.

The paper's whole argument is made through cost counters — tuples examined,
lookups, iterations, peak state — and the repo pins them in
:class:`~repro.engine.instrumentation.EvaluationStats`,
:class:`~repro.service.service.ServiceStats` and
:class:`~repro.storage.store.StorageStats`.  This module puts those counters
on the wire: a thread-safe :class:`MetricsRegistry` of :class:`Counter` /
:class:`Gauge` / :class:`Histogram` metric families (each family may carry a
label set) and a renderer for the Prometheus text exposition format
(``text/plain; version=0.0.4``), scrapeable through
:class:`~repro.obs.exporter.ObservabilityServer`.

Design points:

* **labels resolve once, off the hot path** — ``family.labels(...)`` returns
  a child instrument the caller keeps; the hot path is one ``inc``/``observe``
  call on a prefetched child, whose critical section is a handful of list and
  float operations under a per-child lock (no torn reads: a scrape snapshots
  each child under that same lock, so a histogram's ``_count`` always equals
  its ``+Inf`` bucket);
* **collectors bridge pinned stats** — a callable registered with
  :meth:`MetricsRegistry.register_collector` runs at scrape time and copies
  the pinned ``as_dict()`` counters into metric values, so the exposition
  agrees with the in-process stats by construction instead of by duplicate
  increments;
* **off means free** — :class:`NullRegistry` answers the same API with one
  shared no-op instrument, so instrumented call sites cost a no-op method
  call when observability is disabled (the default).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_right
from collections import OrderedDict, deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "exponential_buckets",
    "latency_buckets",
]

#: the exposition content type the renderer produces
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_INF = float("inf")


def latency_buckets() -> Tuple[float, ...]:
    """Fixed log-spaced latency buckets, 10µs .. 10s (1-2.5-5 per decade)."""
    bounds: List[float] = []
    for exponent in range(-5, 1):
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(round(mantissa * 10.0**exponent, 10))
    bounds.append(10.0)
    return tuple(bounds)


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-spaced bounds starting at ``start`` (for size histograms)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("exponential_buckets needs start > 0, factor > 1, count >= 1")
    return tuple(start * factor**index for index in range(count))


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (backslash-first)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help(text: str) -> str:
    """Escape a HELP line (only backslash and newline are special there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render one sample value (ints without a decimal point, inf as +Inf)."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if number.is_integer() and abs(number) < 1e17:
        return str(int(number))
    return repr(number)


# ----------------------------------------------------------------------
# children: the instruments hot paths actually touch
# ----------------------------------------------------------------------
class _CounterChild:
    """One (label values) cell of a counter family.  Monotone."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decrements")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Set the absolute total (the stats-collector bridge's verb).

        The pinned stats dictionaries are monotone, and so is this: a value
        below the current total is clamped (never rewinds a counter a scraper
        already saw).
        """
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        return [("", (), self.value)]


class _GaugeChild:
    """One cell of a gauge family: settable, or backed by a live callback."""

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._function = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, function: Callable[[], float]) -> None:
        """Read the gauge from ``function`` at every scrape (live gauges)."""
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        return float(function())

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        return [("", (), self.value)]


#: pending observations per histogram child before the observing thread
#: folds them into buckets (bounds memory at ~16 bytes per entry while
#: amortizing the fold to a fraction of the append cost)
_FOLD_THRESHOLD = 4096


class _HistogramChild:
    """One cell of a histogram family: fixed bounds, cumulative on render.

    The hot path is deliberately not "lock, bisect, increment": per-query
    latency lands here, and at service rates a per-observation lock plus
    bucket search is the single most expensive instruction in the whole
    instrumentation layer.  Instead ``observe`` appends the raw value to a
    deque (``deque.append`` is a single C-level, GIL-atomic operation) and
    observations are *folded* into the bucket counts in batches — by the
    unlucky observer that trips the threshold, or by the scraper at
    snapshot time.  A fold sorts the batch once and resolves every bound
    with one ``bisect`` over the sorted batch, so the per-observation
    folding cost is dominated by the C-speed sort.  Nothing is ever lost
    (every append is popped exactly once, under the fold lock) and scrapes
    stay torn-free: a snapshot folds first, then derives ``_count`` and the
    ``+Inf`` bucket from the same counts copy.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_pending")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        # one slot per finite bound plus the +Inf overflow slot
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._pending: "deque[float]" = deque()

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_THRESHOLD:
            self._fold()

    def _fold(self) -> None:
        """Drain the pending deque into the bucket counts (lock held here)."""
        with self._lock:
            pending = self._pending
            batch: List[float] = []
            take = batch.append
            pop = pending.popleft
            for _ in range(len(pending)):
                try:
                    take(pop())
                except IndexError:  # a concurrent fold got there first
                    break
            if not batch:
                return
            batch.sort()
            counts = self._counts
            below = 0
            for index, bound in enumerate(self._bounds):
                at = bisect_right(batch, bound)
                counts[index] += at - below
                below = at
            counts[-1] += len(batch) - below
            self._sum += sum(batch)

    def snapshot(self) -> Tuple[List[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) — one atom."""
        self._fold()
        with self._lock:
            counts = list(self._counts)
            total = self._sum
        cumulative: List[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return cumulative, total, running

    @property
    def count(self) -> int:
        self._fold()
        with self._lock:
            return sum(self._counts)

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        cumulative, total, count = self.snapshot()
        out: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
        for bound, value in zip(self._bounds, cumulative):
            out.append(("_bucket", (("le", format_value(bound)),), value))
        out.append(("_bucket", (("le", "+Inf"),), count))
        out.append(("_sum", (), total))
        out.append(("_count", (), count))
        return out


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
class _MetricFamily:
    """A named metric plus its labeled children (the registry's unit)."""

    kind = "untyped"
    _child_type: type = _CounterChild

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_PATTERN.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} on metric {name}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            # the unlabeled cell exists up front so inc/observe/set delegate
            self._children[()] = self._new_child()

    def _new_child(self):
        return self._child_type()

    def labels(self, *values, **kwargs):
        """The child instrument for one concrete label-value tuple."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(kwargs[name] for name in self.label_names)
            except KeyError as missing:
                raise ValueError(
                    f"metric {self.name} needs label {missing.args[0]!r}"
                ) from None
            if len(kwargs) != len(self.label_names):
                extra = set(kwargs) - set(self.label_names)
                raise ValueError(f"metric {self.name} has no label(s) {sorted(extra)}")
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name} takes {len(self.label_names)} label value(s), "
                f"got {len(key)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _default(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name} is labeled by {list(self.label_names)}; "
                "resolve a child with .labels(...) first"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self.children():
            base_pairs = tuple(zip(self.label_names, key))
            for suffix, extra_pairs, value in child.samples():
                pairs = base_pairs + extra_pairs
                if pairs:
                    body = ",".join(
                        f'{label}="{escape_label_value(text)}"' for label, text in pairs
                    )
                    lines.append(f"{self.name}{suffix}{{{body}}} {format_value(value)}")
                else:
                    lines.append(f"{self.name}{suffix} {format_value(value)}")
        return lines


class Counter(_MetricFamily):
    """A monotone counter family (convention: name ends in ``_total``)."""

    kind = "counter"
    _child_type = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set_total(self, value: float) -> None:
        self._default().set_total(value)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_MetricFamily):
    """A gauge family: set/inc/dec, or a live callback per scrape."""

    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default().set_function(function)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_MetricFamily):
    """A histogram family over fixed bounds (defaults to latency buckets)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else latency_buckets()
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} bounds must be strictly increasing")
        if bounds[-1] == _INF:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        super().__init__(name, help, label_names)

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return self._default().count


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A thread-safe collection of metric families plus the text renderer."""

    #: ``False`` — this registry records; :class:`NullRegistry` overrides
    null = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, _MetricFamily]" = OrderedDict()
        self._collectors: List[Callable[[], None]] = []

    # -- family constructors (get-or-create; shape mismatches raise) ----
    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._family(Histogram, name, help, labels, buckets=buckets)

    def _family(self, family_type, name, help, labels, **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, family_type) or existing.label_names != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name} is already registered as a "
                        f"{existing.kind} with labels {list(existing.label_names)}"
                    )
                return existing
            family = family_type(name, help, labels, **kwargs)
            self._families[name] = family
            return family

    def get(self, name: str) -> Optional[_MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_MetricFamily]:
        with self._lock:
            return list(self._families.values())

    # -- collectors ------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` before every render (the stats-bridge hook).

        Collectors copy pinned stats dictionaries into metric values at
        scrape time, so an exposition always agrees with the in-process
        counters without double-counting on the hot path.
        """
        with self._lock:
            self._collectors.append(collector)

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def sample_value(
        self,
        name: str,
        labels: Union[Dict[str, str], Iterable[Tuple[str, str]], None] = None,
    ) -> Optional[float]:
        """One rendered sample's value (collectors run) — a testing helper."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        wanted = dict(labels or {})
        for family in self.families():
            for key, child in family.children():
                base = dict(zip(family.label_names, key))
                for suffix, extra_pairs, value in child.samples():
                    if family.name + suffix != name:
                        continue
                    if {**base, **dict(extra_pairs)} == wanted:
                        return value
        return None

    def __str__(self) -> str:
        return f"MetricsRegistry({len(self.families())} families)"


class _NullInstrument:
    """The one no-op instrument every NullRegistry family call returns."""

    __slots__ = ()

    def labels(self, *_values, **_kwargs) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def set_function(self, function: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default when observability is off: same API, near-zero cost.

    Every family constructor hands back one shared no-op instrument, so an
    instrumented call site pays a no-op method call and nothing else; the
    renderer produces an empty exposition.
    """

    null = True

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def register_collector(self, collector: Callable[[], None]) -> None:
        pass

    def get(self, name: str) -> None:
        return None

    def families(self) -> List[_MetricFamily]:
        return []

    def render(self) -> str:
        return ""

    def sample_value(self, name: str, labels=None) -> None:
        return None

    def __str__(self) -> str:
        return "NullRegistry()"
