"""Dense two-phase simplex over exact rationals, with a float variant.

Variables are implicitly non-negative.  EXACT mode pivots on Fractions with
Bland's rule, so it terminates and feasibility verdicts are exact.  FLOAT mode
runs the same tableau arithmetic on doubles with a 1e-9 feasibility tolerance
and raises LPNumericalFailure when phase one lands in the ambiguous band
between the tolerance and 1e-6.

Phase one (a first feasible basis) does not depend on the objective.  A
feasibility-only solve keeps the tableau phase one left, and
LPResult.optimum starts phase two for any objective from a copy of it, so a
row system's phase one runs once however many objectives it is optimized for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import LPNumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPMode(Enum):
    EXACT = "exact"
    FLOAT = "float"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    value: object = None
    # A feasible feasibility-only solve keeps the tableau phase one left.
    _start: _Tableau | None = field(default=None, repr=False, compare=False)

    def optimum(self, objective: Sequence, maximize: bool = False) -> LPResult:
        """The min (max) of objective . x over this feasibility solve's rows:
        solve_lp's answer with this objective, by phase two alone from a copy
        of the phase-one tableau.  The start is left as it was, so it serves
        any number of objectives."""
        if self.status == INFEASIBLE:
            return LPResult(INFEASIBLE)
        if self._start is None:
            raise ValueError("optimum() starts from a feasibility-only solve")
        return _phase_two(self._start.copy(), objective, maximize)


_FLOAT_TOL = 1e-9
_FLOAT_AMBIGUOUS = 1e-6
_MAX_PIVOTS = 50_000


class _Tableau:
    __slots__ = ("rows", "basis", "ncols", "num_vars", "art_start", "conv", "tol", "obj")

    def __init__(self, rows, basis, ncols, num_vars, art_start, conv, tol):
        self.rows = rows  # list of lists, last entry is the rhs
        self.basis = basis  # basic variable per row
        self.ncols = ncols  # number of structural+slack+artificial columns
        self.num_vars = num_vars  # structural columns come first
        self.art_start = art_start  # artificial columns come last
        self.conv = conv  # Fraction or float
        self.tol = tol
        self.obj: list | None = None  # reduced cost row, last entry is -value

    def copy(self) -> _Tableau:
        # pivot() replaces row lists and never writes into one, so a copy may
        # share them; only the lists of rows and of basic variables are its own.
        return _Tableau(
            list(self.rows), list(self.basis), self.ncols, self.num_vars,
            self.art_start, self.conv, self.tol,
        )

    def set_objective(self, costs):
        zero = costs[0] - costs[0] if costs else 0
        obj = list(costs) + [zero]
        for i, bv in enumerate(self.basis):
            coeff = obj[bv]
            if coeff != 0:
                row = self.rows[i]
                for j in range(self.ncols + 1):
                    obj[j] -= coeff * row[j]
        self.obj = obj

    @property
    def objective_value(self):
        return -self.obj[self.ncols]

    def pivot(self, i, j):
        # Changed rows get new lists; no row list is written into (see copy).
        row = self.rows[i]
        piv = row[j]
        inv = 1 / piv if isinstance(piv, float) else Fraction(1) / piv
        self.rows[i] = row = [v * inv for v in row]
        for k, other in enumerate(self.rows):
            if k != i and other[j] != 0:
                f = other[j]
                self.rows[k] = [a - f * b for a, b in zip(other, row)]
        if self.obj is not None and self.obj[j] != 0:
            f = self.obj[j]
            self.obj = [a - f * b for a, b in zip(self.obj, row)]
        self.basis[i] = j

    def optimize(self, allowed_cols) -> str:
        """Minimize the current objective with Bland's rule."""
        for _ in range(_MAX_PIVOTS):
            entering = -1
            for j in allowed_cols:
                if self.obj[j] < -self.tol:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > self.tol:
                    ratio = row[self.ncols] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
        raise LPNumericalFailure("simplex did not terminate within the pivot cap")


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[Sequence, str, object]],
    objective: Sequence | None = None,
    maximize: bool = False,
    mode: LPMode = LPMode.EXACT,
) -> LPResult:
    """Solve min/max objective . x subject to rows (coeffs, sense, rhs) and x >= 0.

    With objective None only feasibility is decided; x is then some feasible
    basic solution, and the result's optimum() optimizes objectives over the
    same rows without repeating phase one.
    """
    if mode is LPMode.EXACT:
        conv = Fraction
        tol = Fraction(0)
    else:
        conv = float
        tol = _FLOAT_TOL
    zero, one = conv(0), conv(1)

    # Standard form: normalize rhs >= 0, add slack/surplus, artificials where needed.
    work_rows: list[list] = []
    senses: list[str] = []
    for coeffs, sense, rhs in rows:
        coeffs = [conv(c) for c in coeffs]
        if len(coeffs) != num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        rhs = conv(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        work_rows.append(coeffs + [rhs])
        senses.append(sense)

    m = len(work_rows)
    n_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_art = sum(1 for s in senses if s in (">=", "="))
    ncols = num_vars + n_slack + n_art
    art_start = num_vars + n_slack

    tableau_rows: list[list] = []
    basis: list[int] = []
    slack_i = art_i = 0
    artificials: list[int] = []
    for row, sense in zip(work_rows, senses):
        body, rhs = row[:-1], row[-1]
        extra = [zero] * (n_slack + n_art)
        if sense == "<=":
            extra[slack_i] = one
            basic = num_vars + slack_i
            slack_i += 1
        elif sense == ">=":
            extra[slack_i] = -one
            slack_i += 1
            extra[n_slack + art_i] = one
            basic = art_start + art_i
            artificials.append(basic)
            art_i += 1
        else:
            extra[n_slack + art_i] = one
            basic = art_start + art_i
            artificials.append(basic)
            art_i += 1
        tableau_rows.append(body + extra + [rhs])
        basis.append(basic)

    t = _Tableau(tableau_rows, basis, ncols, num_vars, art_start, conv, tol)

    if artificials:
        phase1 = [zero] * ncols
        for j in artificials:
            phase1[j] = one
        t.set_objective(phase1)
        status = t.optimize(range(ncols))
        if status != OPTIMAL:
            raise LPNumericalFailure("phase one reported an unbounded objective")
        residual = t.objective_value
        if residual > tol:
            if mode is LPMode.FLOAT and residual < _FLOAT_AMBIGUOUS:
                raise LPNumericalFailure(
                    f"phase-one residual {residual!r} is inside the ambiguous band"
                )
            return LPResult(INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        art_set = set(artificials)
        for i in list(range(len(t.basis)))[::-1]:
            if t.basis[i] not in art_set:
                continue
            pivot_col = -1
            for j in range(art_start):
                if abs(t.rows[i][j]) > tol:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                t.pivot(i, pivot_col)
            else:
                del t.rows[i]
                del t.basis[i]

    return _phase_two(t, objective, maximize)


def _phase_two(t: _Tableau, objective: Sequence | None, maximize: bool) -> LPResult:
    """Optimize objective from the feasible basis phase one left in t.  With
    objective None no pivot is made and the result keeps t as its start."""
    zero = t.conv(0)
    if objective is not None:
        obj = [t.conv(c) for c in objective]
        if maximize:
            obj = [-c for c in obj]
        t.set_objective(obj + [zero] * (t.ncols - t.num_vars))
        if t.optimize(range(t.art_start)) == UNBOUNDED:
            return LPResult(UNBOUNDED)

    x = [zero] * t.num_vars
    for i, bv in enumerate(t.basis):
        if bv < t.num_vars:
            x[bv] = t.rows[i][t.ncols]
    if objective is None:
        return LPResult(OPTIMAL, x, _start=t)
    value = t.objective_value
    return LPResult(OPTIMAL, x, -value if maximize else value)
