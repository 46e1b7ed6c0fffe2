"""Source positions and validation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter


class SourceSpan:
    """Half-open range of character offsets into the source text, plus the
    line and column of its start (1-based).  Offsets and columns count
    characters, not bytes: an "é" earlier on the line moves a column by one.

    Immutable: the four fields are read-only properties over private slots,
    which __init__ sets by plain assignment: a frozen dataclass sets each
    field through object.__setattr__, which takes about four times as long."""

    __slots__ = ("_line", "_column", "_start", "_end")

    def __init__(self, line: int, column: int, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"bad span: start={start} end={end}")
        self._line = line
        self._column = column
        self._start = start
        self._end = end

    line = property(attrgetter("_line"))
    column = property(attrgetter("_column"))
    start = property(attrgetter("_start"))
    end = property(attrgetter("_end"))

    def _fields(self) -> tuple[int, int, int, int]:
        return (self._line, self._column, self._start, self._end)

    def __eq__(self, other):
        if type(other) is not SourceSpan:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return SourceSpan, self._fields()

    def __repr__(self):
        return "SourceSpan(line=%r, column=%r, start=%r, end=%r)" % self._fields()

    def __str__(self):
        return f"{self.line}:{self.column}"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class DiagnosticKind(Enum):
    SYNTAX = "Syntax"
    EMPTY_SOLUTION_SET = "EmptySolutionSet"
    LENGTH_MISMATCH = "LengthMismatch"
    SHARP_CARDINALITY = "SharpCardinality"
    LOWER_EXCEEDS_UPPER = "LowerExceedsUpper"
    VALUE_RANGE = "ValueRange"
    ARITY_MISMATCH = "ArityMismatch"
    TIME_OUT_OF_CALENDAR = "TimeOutOfCalendar"


@dataclass(frozen=True)
class Diagnostic:
    kind: DiagnosticKind
    severity: Severity
    message: str
    span: SourceSpan | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def __str__(self):
        where = f"{self.span} " if self.span else ""
        return f"{where}{self.severity.value}[{self.kind.value}]: {self.message}"


def error(kind: DiagnosticKind, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(kind, Severity.ERROR, message, span)


def warning(kind: DiagnosticKind, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(kind, Severity.WARNING, message, span)
