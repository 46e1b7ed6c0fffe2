"""Source positions and validation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class SourceSpan:
    """Half-open range of character offsets into the source text, plus the
    line and column of its start (1-based).  Offsets and columns count
    characters, not bytes: an "é" earlier on the line moves a column by one."""

    line: int
    column: int
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad span: start={self.start} end={self.end}")

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
