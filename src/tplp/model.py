"""Core vocabulary: calendars, t-atoms, temporal constraints, weights, clauses.

An annotation <C, lower, upper> is an indeterminate instant: the solution
points of C in the calendar, each with the interval [lower(t), upper(t)].
TPAnnotation.instant reads that window off once for every consumer (unfolding,
entailment, validation, satisfaction, evolution checks), and
TPAnnotation.of_instant writes a contiguous window back as an annotation.

Every value here is immutable after construction, so programs can be shared
freely across solver tasks.  Source spans ride along on AST nodes but are
excluded from equality, which keeps round-trip comparisons structural.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union

from .diagnostics import Diagnostic, DiagnosticKind, SourceSpan, error, warning
from .errors import CalendarTooLarge, GroundingTooLarge, NonNormalConstraint
from .intervals import ONE, ProbInterval, format_rational

TimePoint = int

# Most points a calendar range may span; checked before the points are built.
MAX_CALENDAR_POINTS = 100_000
# Most constraint evaluations, |calendar| ** (number of companion temporal
# variables + 1), that validating an annotation or grounding a clause may
# make: each grounding of the companions is solved at every calendar point.
MAX_COMPANION_EVALUATIONS = 1_000_000


@dataclass(frozen=True)
class Calendar:
    """Finite, strictly increasing sequence of integer time points."""

    points: tuple[TimePoint, ...]

    def __post_init__(self):
        pts = tuple(int(t) for t in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("calendar must be non-empty")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("calendar points must be strictly increasing")

    @classmethod
    def from_range(cls, first: int, last: int) -> "Calendar":
        if last < first:
            raise ValueError(f"empty calendar range {first}..{last}")
        if last - first >= MAX_CALENDAR_POINTS:
            raise CalendarTooLarge(
                f"calendar {first}..{last} has {last - first + 1} points, "
                f"above the cap of {MAX_CALENDAR_POINTS}"
            )
        return cls(tuple(range(first, last + 1)))

    def __contains__(self, t: int) -> bool:
        return t in self.points

    def __len__(self):
        return len(self.points)

    @property
    def first(self) -> int:
        return self.points[0]

    @property
    def last(self) -> int:
        return self.points[-1]

    @property
    def is_contiguous(self) -> bool:
        return self.points == tuple(range(self.first, self.last + 1))


@dataclass(frozen=True)
class ObjVar:
    """Object variable (capitalized in source)."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TVar:
    """Temporal variable (identifiers starting with Y in source)."""

    name: str

    def __str__(self):
        return self.name


ObjTerm = Union[str, ObjVar]
TimeTerm = Union[int, TVar]


@dataclass(frozen=True)
class TAtom:
    """Atom with one dedicated temporal position."""

    predicate: str
    args: tuple[ObjTerm, ...]
    time: TimeTerm
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def is_ground(self) -> bool:
        return isinstance(self.time, int) and all(isinstance(a, str) for a in self.args)

    @property
    def object_vars(self) -> frozenset[str]:
        return frozenset(a.name for a in self.args if isinstance(a, ObjVar))

    def key(self):
        """Canonical sort key for ground atoms."""
        return (self.predicate, tuple(str(a) for a in self.args), self.time)

    def drop_span(self) -> "TAtom":
        return TAtom(self.predicate, self.args, self.time)

    def timeless(self) -> "CAtom":
        return CAtom(self.predicate, tuple(str(a) for a in self.args))

    def __str__(self):
        args = f"({','.join(map(str, self.args))})" if self.args else ""
        return f"{self.predicate}{args}@{self.time}"


@dataclass(frozen=True)
class CAtom:
    """Timeless atom: a predicate plus constant arguments, no temporal position."""

    predicate: str
    args: tuple[str, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    is_ground = True  # the arguments are constants by construction
    time = None  # no temporal position: in a base it differs from every t-atom

    def key(self):
        return (self.predicate, self.args)

    def at(self, t: TimeTerm) -> TAtom:
        return TAtom(self.predicate, self.args, t, self.span)

    def __str__(self):
        args = f"({','.join(self.args)})" if self.args else ""
        return f"{self.predicate}{args}"


def arity_errors(a: TAtom | CAtom, arities: dict[str, int]) -> list[Diagnostic]:
    """An arity error when arities recorded a's predicate with another arity."""
    seen = arities.setdefault(a.predicate, len(a.args))
    if seen == len(a.args):
        return []
    message = f"predicate {a.predicate} used with arity {len(a.args)} and {seen}"
    return [error(DiagnosticKind.ARITY_MISMATCH, message, a.span)]


class Connective(Enum):
    SINGLE = "single"
    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class BasicFormula:
    """Homogeneous conjunction or disjunction of t-atoms (or one atom); a
    skeleton formula has timeless atoms instead."""

    connective: Connective
    atoms: tuple[TAtom | CAtom, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a basic formula needs at least one atom")
        if (len(self.atoms) == 1) != (self.connective is Connective.SINGLE):
            raise ValueError("SINGLE is for exactly one atom; AND/OR need two or more")

    @classmethod
    def of(cls, connective: Connective, atoms, span=None) -> "BasicFormula":
        atoms = tuple(atoms)
        if len(atoms) == 1:
            connective = Connective.SINGLE
        return cls(connective, atoms, span)

    @classmethod
    def single(cls, atom: TAtom) -> "BasicFormula":
        return cls(Connective.SINGLE, (atom,))

    @property
    def temporal_var(self) -> TVar | None:
        """The shared temporal variable, or None if every atom is time-ground."""
        tvars = {a.time for a in self.atoms if isinstance(a.time, TVar)}
        if len(tvars) > 1:
            raise ValueError(f"formula mixes temporal variables {sorted(v.name for v in tvars)}")
        return next(iter(tvars), None)

    def __str__(self):
        if self.connective is Connective.SINGLE:
            return str(self.atoms[0])
        sep = f" {self.connective.value} "
        return sep.join(str(a) for a in self.atoms)


# --- temporal arithmetic terms -------------------------------------------------


@dataclass(frozen=True)
class TConst:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class TRef:
    var: TVar

    def __str__(self):
        return self.var.name


@dataclass(frozen=True)
class TBin:
    op: str  # '+', '-', '*'
    left: "TExpr"
    right: "TExpr"

    def __str__(self):
        def wrap(e):
            return f"({e})" if isinstance(e, TBin) else str(e)

        return f"{wrap(self.left)} {self.op} {wrap(self.right)}"


TExpr = Union[TConst, TRef, TBin]


def texpr_vars(e: TExpr) -> frozenset[str]:
    if isinstance(e, TConst):
        return frozenset()
    if isinstance(e, TRef):
        return frozenset({e.var.name})
    return texpr_vars(e.left) | texpr_vars(e.right)


def eval_texpr(e: TExpr) -> int:
    if isinstance(e, TConst):
        return e.value
    if isinstance(e, TRef):
        raise NonNormalConstraint(f"unbound temporal variable {e.var.name}")
    a, b = eval_texpr(e.left), eval_texpr(e.right)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    raise ValueError(f"unknown operator {e.op!r}")


def subst_texpr(e: TExpr, env: dict[str, int]) -> TExpr:
    if isinstance(e, TConst):
        return e
    if isinstance(e, TRef):
        return TConst(env[e.var.name]) if e.var.name in env else e
    return TBin(e.op, subst_texpr(e.left, env), subst_texpr(e.right, env))


# --- temporal constraints ------------------------------------------------------

_OPS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp:
    """Leaf comparison: the principal variable against a temporal term."""

    var: TVar
    op: str
    rhs: TExpr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self):
        return f"{self.var} {self.op} {self.rhs}"


@dataclass(frozen=True)
class TimeRange:
    """Leaf range y: lo ~ hi, equivalent to y >= lo and y <= hi."""

    var: TVar
    lo: TExpr
    hi: TExpr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __str__(self):
        # the space after ':' keeps a negative bound from lexing as ':-'
        return f"{self.var}: {self.lo} ~ {self.hi}"


@dataclass(frozen=True)
class CNot:
    child: "TemporalConstraint"

    def __str__(self):
        return f"not {_wrap(self.child)}"


@dataclass(frozen=True)
class CAnd:
    left: "TemporalConstraint"
    right: "TemporalConstraint"

    def __str__(self):
        return f"{_wrap(self.left)} and {_wrap(self.right)}"


@dataclass(frozen=True)
class COr:
    left: "TemporalConstraint"
    right: "TemporalConstraint"

    def __str__(self):
        return f"{_wrap(self.left)} or {_wrap(self.right)}"


TemporalConstraint = Union[Cmp, TimeRange, CNot, CAnd, COr]


def _wrap(c: TemporalConstraint) -> str:
    if isinstance(c, (CAnd, COr, CNot)):
        return f"({c})"
    return str(c)


def constraint_principal(c: TemporalConstraint) -> TVar:
    """The single variable appearing on the left of every leaf."""
    leaves = set()

    def walk(node):
        if isinstance(node, (Cmp, TimeRange)):
            leaves.add(node.var)
        elif isinstance(node, CNot):
            walk(node.child)
        else:
            walk(node.left)
            walk(node.right)

    walk(c)
    if len(leaves) != 1:
        raise ValueError(f"constraint must bind exactly one principal variable, got {sorted(v.name for v in leaves)}")
    return next(iter(leaves))


def companion_vars(c: TemporalConstraint) -> frozenset[str]:
    """Variables occurring inside right-hand temporal terms."""
    if isinstance(c, Cmp):
        return texpr_vars(c.rhs)
    if isinstance(c, TimeRange):
        return texpr_vars(c.lo) | texpr_vars(c.hi)
    if isinstance(c, CNot):
        return companion_vars(c.child)
    return companion_vars(c.left) | companion_vars(c.right)


def is_normal(c: TemporalConstraint) -> bool:
    return not companion_vars(c)


def substitute_constraint(c: TemporalConstraint, env: dict[str, int]) -> TemporalConstraint:
    """Replace companion variables by time points, leaving the principal alone."""
    if isinstance(c, Cmp):
        return Cmp(c.var, c.op, subst_texpr(c.rhs, env), c.span)
    if isinstance(c, TimeRange):
        return TimeRange(c.var, subst_texpr(c.lo, env), subst_texpr(c.hi, env), c.span)
    if isinstance(c, CNot):
        return CNot(substitute_constraint(c.child, env))
    if isinstance(c, CAnd):
        return CAnd(substitute_constraint(c.left, env), substitute_constraint(c.right, env))
    return COr(substitute_constraint(c.left, env), substitute_constraint(c.right, env))


def solve_constraint(c: TemporalConstraint, cal: Calendar) -> list[TimePoint]:
    """Solution set of a normal constraint over the calendar, in calendar order.

    Works by set algebra on the calendar: leaves filter it directly, AND/OR/NOT
    become intersection/union/complement.
    """
    if not is_normal(c):
        raise NonNormalConstraint(
            f"constraint {c} mentions companion variables {sorted(companion_vars(c))}; "
            f"ground them first"
        )
    universe = cal.points

    def sols(node) -> set[int]:
        if isinstance(node, Cmp):
            bound = eval_texpr(node.rhs)
            op = _OPS[node.op]
            return {t for t in universe if op(t, bound)}
        if isinstance(node, TimeRange):
            lo, hi = eval_texpr(node.lo), eval_texpr(node.hi)
            return {t for t in universe if lo <= t <= hi}
        if isinstance(node, CNot):
            return set(universe) - sols(node.child)
        if isinstance(node, CAnd):
            return sols(node.left) & sols(node.right)
        return sols(node.left) | sols(node.right)

    solution = sols(c)
    return [t for t in universe if t in solution]


# --- weight functions and annotations -------------------------------------------


class WeightKind(Enum):
    LIST = "list"
    SHARP = "sharp"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class WeightFunction:
    """Per-time-point weights over a constraint's solution set.

    LIST carries one value per solution point (in time order), SHARP is the
    constant 1 on a singleton solution set, UNIFORM spreads 1/|sol| over it.
    """

    kind: WeightKind
    values: tuple[Fraction, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if self.kind is not WeightKind.LIST and vals:
            raise ValueError(f"{self.kind.value} weight functions carry no value list")
        for v in vals:
            if not 0 <= v.numerator <= v.denominator:  # in [0, 1], on integers
                raise ValueError(f"weight {v} outside [0,1]")

    @classmethod
    def sharp(cls) -> "WeightFunction":
        return cls(WeightKind.SHARP)

    @classmethod
    def uniform(cls) -> "WeightFunction":
        return cls(WeightKind.UNIFORM)

    @classmethod
    def list_of(cls, values) -> "WeightFunction":
        return cls(WeightKind.LIST, tuple(Fraction(v) for v in values))

    def over(self, n: int) -> tuple[Fraction, ...]:
        """The weights of n solution points, in time order."""
        if self.kind is WeightKind.SHARP:
            return (ONE,) * n
        if self.kind is WeightKind.UNIFORM:
            return tuple(Fraction(1, n) for _ in range(n))
        return self.values

    def __str__(self):
        if self.kind is WeightKind.SHARP:
            return "#"
        if self.kind is WeightKind.UNIFORM:
            return "uniform"
        return "[" + ",".join(format_rational(v) for v in self.values) + "]"


@dataclass(frozen=True)
class TPAnnotation:
    """An indeterminate instant: a constraint's solution points, each carrying
    the interval [lower(t), upper(t)] of the two weight functions."""

    constraint: TemporalConstraint
    lower: WeightFunction
    upper: WeightFunction
    span: SourceSpan | None = field(default=None, compare=False, repr=False)
    # calendar -> instant, for this object's life; see instant
    _instants: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def instant(self, cal: Calendar) -> list[tuple[TimePoint, ProbInterval]]:
        """Each solution point, in time order, with its interval.  An empty
        solution set has none, whatever the weights; otherwise a weight list
        must hold one value per point (ValueError otherwise).

        Computed once per calendar and shared by every caller, so a caller
        must not mutate the list it gets."""
        window = self._instants.get(cal)
        if window is None:
            window = self._instants[cal] = self._window(cal)
        return window

    def _window(self, cal: Calendar) -> list[tuple[TimePoint, ProbInterval]]:
        sol = solve_constraint(self.constraint, cal)
        if not sol:
            return []
        lowers, uppers = self.lower.over(len(sol)), self.upper.over(len(sol))
        return [
            (t, ProbInterval(lo, hi)) for t, lo, hi in zip(sol, lowers, uppers, strict=True)
        ]

    @classmethod
    def of_instant(cls, window) -> "TPAnnotation":
        """The annotation of a contiguous window of (time point, interval)
        pairs: Y = t for one point, Y: first ~ last for more."""
        times, ivs = zip(*window)
        y = TVar("Y")
        if len(times) == 1:
            constraint = Cmp(y, "=", TConst(times[0]))
        else:
            constraint = TimeRange(y, TConst(times[0]), TConst(times[-1]))
        lower = WeightFunction.list_of(iv.lo for iv in ivs)
        return cls(constraint, lower, WeightFunction.list_of(iv.hi for iv in ivs))


def substitute_annotation(a: TPAnnotation, env: dict[str, int]) -> TPAnnotation:
    """a with its companion variables replaced by time points.  Without any
    to replace it is a itself, which keeps the instants it has computed."""
    if not env:
        return a
    return TPAnnotation(substitute_constraint(a.constraint, env), a.lower, a.upper, a.span)


def companion_groundings(names, cal: Calendar):
    """An iterator over each assignment {name: point} of calendar points to
    the companion temporal variables names, in sorted name order and product
    order: one, empty, when there are none.  Groundings whose solves over
    the calendar exceed MAX_COMPANION_EVALUATIONS raise GroundingTooLarge
    here, before any is made."""
    names = sorted(names)
    n, k = len(cal), len(names)
    if n ** (k + 1) > MAX_COMPANION_EVALUATIONS:
        raise GroundingTooLarge(
            f"companion temporal variables {', '.join(names)} have {n}^{k} groundings over "
            f"the calendar, each solved at its {n} points: {n}^{k + 1} evaluations, above "
            f"the cap of {MAX_COMPANION_EVALUATIONS}"
        )
    return (dict(zip(names, combo)) for combo in itertools.product(cal.points, repeat=k))


def validate_annotation(a: TPAnnotation, cal: Calendar) -> list[Diagnostic]:
    """Well-formedness diagnostics for one annotation, read off its instant.

    An empty solution set is a warning (the annotated formula is vacuously
    satisfied); everything else reported here is an error.  A constraint with
    companion variables is checked under every grounding of them, since each
    grounding must unfold cleanly later.  Each diagnostic is reported once,
    at its first grounding, and so is one empty solution set, whose message
    names the grounded constraint.
    """
    companions = companion_vars(a.constraint)
    if companions:
        first: dict = {}  # (kind, message), or the empty kind -> its first diagnostic
        for env in companion_groundings(companions, cal):
            for d in validate_annotation(substitute_annotation(a, env), cal):
                empty = d.kind is DiagnosticKind.EMPTY_SOLUTION_SET
                first.setdefault(d.kind if empty else (d.kind, d.message), d)
        return list(first.values())
    try:
        window = a.instant(cal)
        n = len(window)
    except ValueError:  # a weight list whose length is not the solution count
        window, n = [], len(solve_constraint(a.constraint, cal))
    if not n:
        return [
            warning(
                DiagnosticKind.EMPTY_SOLUTION_SET,
                f"constraint {a.constraint} has no solution in the calendar; "
                f"the annotated formula is vacuous",
                a.span,
            )
        ]
    diags = []
    for name, w in (("lower", a.lower), ("upper", a.upper)):
        if w.kind is WeightKind.LIST and len(w.values) != n:
            diags.append(
                error(
                    DiagnosticKind.LENGTH_MISMATCH,
                    f"{name} weight list has {len(w.values)} values but |sol| = {n}",
                    w.span or a.span,
                )
            )
        if w.kind is WeightKind.SHARP and n != 1:
            diags.append(
                error(
                    DiagnosticKind.SHARP_CARDINALITY,
                    f"# requires a singleton solution set, but |sol| = {n}",
                    w.span or a.span,
                )
            )
    if not diags:
        for t, iv in window:
            if iv.lo > iv.hi:
                diags.append(
                    error(
                        DiagnosticKind.LOWER_EXCEEDS_UPPER,
                        f"lower weight {format_rational(iv.lo)} exceeds upper "
                        f"{format_rational(iv.hi)} at t = {t}",
                        a.span,
                    )
                )
    return diags


def substitute_time(f: BasicFormula, t: TimePoint) -> BasicFormula:
    """Replace every variable temporal position by t; ground atoms are untouched."""
    atoms = tuple(
        TAtom(a.predicate, a.args, t, a.span) if isinstance(a.time, TVar) else a
        for a in f.atoms
    )
    return BasicFormula(f.connective, atoms, f.span)


# --- clauses and programs --------------------------------------------------------


@dataclass(frozen=True)
class TPClause:
    head: TAtom
    head_annot: TPAnnotation
    body: tuple[tuple[BasicFormula, TPAnnotation], ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def object_vars(self) -> frozenset[str]:
        vs = set(self.head.object_vars)
        for f, _ in self.body:
            for a in f.atoms:
                vs |= a.object_vars
        return frozenset(vs)

    @property
    def companion_tvars(self) -> frozenset[str]:
        vs = set(companion_vars(self.head_annot.constraint))
        for _, ann in self.body:
            vs |= companion_vars(ann.constraint)
        return frozenset(vs)

    @property
    def is_fact(self) -> bool:
        return not self.body


@dataclass(frozen=True)
class PTProgram:
    calendar: Calendar
    clauses: tuple[TPClause, ...]
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(
            self, "constants", frozenset(self.constants) | occurring_constants(self.clauses)
        )

    def _regrounded(self, clauses) -> PTProgram:
        """This program over clauses that mention only its constants, such as
        instances of its own clauses: its constants are kept, not rescanned."""
        out = copy.copy(self)
        object.__setattr__(out, "clauses", tuple(clauses))
        return out

    def validate(self) -> list[Diagnostic]:
        """Program-wide diagnostics: annotations, arities, calendar membership."""
        diags: list[Diagnostic] = []
        arities: dict[str, int] = {}

        def check_atom(a: TAtom):
            diags.extend(arity_errors(a, arities))
            if isinstance(a.time, int) and a.time not in self.calendar:
                diags.append(
                    error(
                        DiagnosticKind.TIME_OUT_OF_CALENDAR,
                        f"time point {a.time} is not in the calendar",
                        a.span,
                    )
                )

        for cl in self.clauses:
            check_atom(cl.head)
            diags.extend(validate_annotation(cl.head_annot, self.calendar))
            for f, ann in cl.body:
                for a in f.atoms:
                    check_atom(a)
                diags.extend(validate_annotation(ann, self.calendar))
        return diags


def occurring_constants(clauses) -> frozenset[str]:
    out: set[str] = set()
    for cl in clauses:
        for a in (cl.head, *(atom for f, _ in cl.body for atom in f.atoms)):
            out.update(x for x in a.args if isinstance(x, str))
    return frozenset(out)
