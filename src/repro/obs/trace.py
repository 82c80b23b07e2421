"""Lightweight lifecycle tracing: spans, a bounded ring, a slow-query log.

A :class:`Tracer` records named spans with monotonic durations::

    with tracer.span("flush", rows=42):
        ...

Finished spans land in a bounded ring buffer (old spans fall off; tracing a
long-lived service never grows memory), spans slower than the configured
threshold are additionally kept in a separate slow log (the slow-query log —
its capacity is independent, so a burst of fast spans cannot evict the
interesting outliers), and the whole ring exports as JSONL for offline
tooling.  Exceptions inside a span still record it, tagged with the error.

:class:`NullTracer` is the default when observability is off: ``span()``
returns one shared no-op context manager, so a traced call site costs two
no-op method calls and nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

__all__ = ["NullTracer", "Span", "Tracer"]

_now = time.perf_counter


class Span:
    """One finished span: name, wall-clock start, duration, attributes."""

    __slots__ = ("name", "started_at", "duration", "attributes")

    def __init__(
        self, name: str, started_at: float, duration: float, attributes: Dict[str, object]
    ) -> None:
        self.name = name
        #: wall-clock start (``time.time()``), for correlating exports
        self.started_at = started_at
        #: monotonic seconds between enter and exit
        self.duration = duration
        self.attributes = attributes

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration,
            "attributes": self.attributes,
        }

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in self.attributes.items())
        return f"span {self.name} {self.duration * 1000:.3f}ms" + (
            f" [{extras}]" if extras else ""
        )


class _SpanContext:
    """The in-flight side of one span (allocated per traced call)."""

    __slots__ = ("_tracer", "_name", "_attributes", "_wall", "_tick")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def annotate(self, **attributes) -> "_SpanContext":
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "_SpanContext":
        self._wall = time.time()
        self._tick = _now()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        duration = _now() - self._tick
        if exc is not None:
            self._attributes["error"] = repr(exc)
        self._tracer._record(Span(self._name, self._wall, duration, self._attributes))


class _NullSpanContext:
    """The shared no-op span (NullTracer and fast-path short-circuits)."""

    __slots__ = ()

    def annotate(self, **attributes) -> "_NullSpanContext":
        return self

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *_exc_info) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """A bounded span recorder with a slow-span side log."""

    null = False

    def __init__(
        self,
        capacity: int = 2048,
        *,
        slow_threshold_seconds: float = 0.1,
        slow_capacity: int = 256,
    ) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("Tracer capacities must be at least 1")
        if slow_threshold_seconds < 0:
            raise ValueError("slow_threshold_seconds cannot be negative")
        self.capacity = capacity
        self.slow_threshold_seconds = slow_threshold_seconds
        self._lock = threading.Lock()
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._slow: "deque[Span]" = deque(maxlen=slow_capacity)
        #: lifetime counters (the ring forgets; these do not)
        self.spans_recorded = 0
        self.slow_spans_recorded = 0

    def span(self, name: str, **attributes) -> _SpanContext:
        """A context manager timing one operation (records on exit)."""
        return _SpanContext(self, name, attributes)

    def record(self, name: str, duration: float, **attributes) -> Span:
        """Record an already-measured span post hoc.

        The slow-query-log idiom: the caller times the operation itself and
        only calls this when the duration clears
        :attr:`slow_threshold_seconds`, so the fast path never allocates a
        span context at all.
        """
        span = Span(name, time.time(), duration, attributes)
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self.spans_recorded += 1
            if span.duration >= self.slow_threshold_seconds:
                self._slow.append(span)
                self.slow_spans_recorded += 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """The retained spans, oldest first (optionally filtered by name)."""
        with self._lock:
            retained = list(self._spans)
        if name is None:
            return retained
        return [span for span in retained if span.name == name]

    def slow_spans(self) -> List[Span]:
        """The retained slow spans (duration >= the threshold), oldest first."""
        with self._lock:
            return list(self._slow)

    def dropped(self) -> int:
        """How many spans the ring has forgotten (recorded - retained)."""
        with self._lock:
            return self.spans_recorded - len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._slow.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(self, destination: Union[str, Path, IO[str]]) -> int:
        """Write the retained spans as JSON Lines; returns the span count."""
        spans = self.spans()
        if hasattr(destination, "write"):
            for span in spans:
                destination.write(json.dumps(span.as_dict(), default=str) + "\n")
        else:
            with open(destination, "w") as handle:
                for span in spans:
                    handle.write(json.dumps(span.as_dict(), default=str) + "\n")
        return len(spans)

    def __str__(self) -> str:
        return (
            f"Tracer({len(self.spans())}/{self.capacity} spans, "
            f"{len(self.slow_spans())} slow)"
        )


class NullTracer:
    """The default when observability is off: spans cost two no-op calls."""

    null = True
    slow_threshold_seconds = float("inf")
    spans_recorded = 0
    slow_spans_recorded = 0

    def span(self, name: str, **attributes) -> _NullSpanContext:
        return _NULL_SPAN

    def record(self, name: str, duration: float, **attributes) -> None:
        return None

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def slow_spans(self) -> List[Span]:
        return []

    def dropped(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def export_jsonl(self, destination) -> int:
        return 0

    def __str__(self) -> str:
        return "NullTracer()"
