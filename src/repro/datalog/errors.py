"""Exception hierarchy for the Datalog substrate.

All errors raised by the library derive from :class:`ReproError` so that
applications embedding the library can catch everything in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ParseError(ReproError):
    """Raised when the Prolog-syntax parser encounters malformed input.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")


class SchemaError(ReproError):
    """Raised when facts or rules violate the arity of an existing predicate."""


class ProgramError(ReproError):
    """Raised when a program does not have the shape an operation requires.

    Typical causes: asking for *the* linear recursive rule of a predicate
    that has several recursive rules, requesting the full A/V graph of a
    nonlinear rule, or evaluating a query on a predicate the program never
    defines.
    """


class EvaluationError(ReproError):
    """Raised when query evaluation cannot proceed (unknown predicate, bad query)."""


class QueryTimeout(ReproError, TimeoutError):
    """A query exceeded its ``timeout=`` deadline.

    Raised eagerly when the deadline has already passed at dispatch (the
    service's admission deadline), and cooperatively from inside the
    fixpoint drivers (checked once per iteration via
    :meth:`repro.engine.instrumentation.EvaluationStats.record_iteration`)
    for evaluations already running under
    :func:`repro.engine.instrumentation.evaluation_deadline`.  Subclasses
    ``TimeoutError`` so generic deadline handling catches it too.
    """


class NotOneSidedError(ProgramError):
    """Raised when a one-sided-only evaluation algorithm is applied to a recursion
    that Theorem 3.1 classifies as many-sided."""
