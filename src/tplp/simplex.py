"""Dense two-phase simplex over exact rationals, with a float variant.

Variables are implicitly non-negative.  EXACT mode pivots fraction-free (Edmonds
1967; Bareiss 1968): each tableau row holds integer numerators over one positive
denominator of its own, reduced by their gcd after every change, and a pivot
combines rows as other*p - q*pivot_row with no division.  A row scaled by a
positive constant stands for the same rationals, so the tableau is the one a
Fraction tableau would hold, and Bland's rule (its ratio test cross-multiplied)
makes the same pivots: it terminates, verdicts are exact, and x and values
come back as Fractions.  FLOAT mode runs the same tableau on doubles, every
denominator 1, with a 1e-9 feasibility tolerance and raises
LPNumericalFailure when phase one lands in the ambiguous band between the
tolerance and 1e-6.

Phase one (a first feasible basis) does not depend on the objective, so
solve_lp only decides feasibility: it returns the basic solution phase one
reaches and keeps the tableau phase one left.  LPResult.optimum and
LPResult.bound start phase two for any objective from a copy of it, so a row
system's phase one runs once however many objectives it is optimized for.

Phase one runs over the distinct columns: once rows are scaled to integers,
a structural column equal to an earlier one is left out (col_of names each
variable's kept column).  Row operations keep equal columns equal and phase
one costs them alike, so Bland's rule, which tries the earlier column first,
never enters a copy, nor does the drive-out of artificials: the pivots, the
basis and the vertex (0 on every copy) are the full tableau's.  optimum
widens the tableau back to one column per variable, which gives the tableau
phase one over every column leaves.  bound, for values only, runs phase two
over the kept columns, each costed by the least (when maximizing, greatest)
cost of its variables: the optimal values agree, as mass on copies can move
onto the cheapest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
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
    # A feasible solve_lp result keeps the tableau phase one left.
    _start: _Tableau | None = field(default=None, repr=False, compare=False)

    def optimum(self, objective: Sequence, maximize: bool = False) -> LPResult:
        """The min (max) of objective . x over this solve's rows, by phase two
        alone from the phase-one tableau widened to every column.  The start
        is left as it was, so it serves any number of objectives."""
        if self.status == INFEASIBLE:
            return LPResult(INFEASIBLE)
        if self._start is None:
            raise ValueError("optimum() starts from a solve_lp result")
        t = self._start.widened()
        value = _phase_two(t, *_numerators(objective, t.exact), maximize)
        if value is None:
            return LPResult(UNBOUNDED)
        return LPResult(OPTIMAL, t.vertex(), value)

    def bound(self, objective: Sequence, maximize: bool = False):
        """optimum(objective, maximize).value, None when infeasible or
        unbounded, by phase two over the kept columns alone, each costed by
        the least (greatest) cost of the variables that share it."""
        if self.status == INFEASIBLE:
            return None
        if self._start is None:
            raise ValueError("bound() starts from a solve_lp result")
        t = self._start.copy()
        costs, den = _numerators(objective, t.exact)
        # the last pair per column wins: its least (greatest) cost
        best = dict(sorted(zip(t.col_of, costs), reverse=not maximize))
        return _phase_two(t, [best[c] for c in range(t.num_vars)], den, maximize)


_FLOAT_TOL = 1e-9
_FLOAT_AMBIGUOUS = 1e-6
_MAX_PIVOTS = 50_000


def _numerators(values, exact: bool) -> tuple[list, int | float]:
    """values as numerators over one denominator: integers over their least
    common denominator (EXACT), else floats over 1."""
    if not exact:
        return [float(v) for v in values], 1.0
    try:
        pairs = [(v.numerator, v.denominator) for v in values]
    except AttributeError:  # floats, Decimals, strings: Fraction reads them exactly
        pairs = [(f.numerator, f.denominator) for f in map(Fraction, values)]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


class _Tableau:
    __slots__ = (
        "rows", "dens", "basis", "ncols", "num_vars", "art_start", "exact", "tol",
        "col_of", "firsts", "obj", "obj_den",
    )

    def __init__(self, rows, dens, basis, ncols, num_vars, art_start, exact, tol, col_of, firsts):
        self.rows = rows  # numerators per row, last entry is the rhs
        self.dens = dens  # positive denominator per row; 1 in FLOAT mode
        self.basis = basis  # basic variable per row
        self.ncols = ncols  # number of structural+slack+artificial columns
        self.num_vars = num_vars  # structural (kept) columns come first
        self.art_start = art_start  # artificial columns come last
        self.exact = exact  # int numerators, else floats
        self.tol = tol
        self.col_of = col_of  # per variable, the structural column holding it
        self.firsts = firsts  # per structural column, its first variable
        self.obj: list | None = None  # reduced cost numerators, last entry is -value
        self.obj_den = 1

    def copy(self) -> _Tableau:
        # pivot() replaces row lists and never writes into one, so a copy may
        # share them; the lists of rows, denominators and basic variables are
        # its own.
        return _Tableau(
            list(self.rows), list(self.dens), list(self.basis), self.ncols,
            self.num_vars, self.art_start, self.exact, self.tol, self.col_of, self.firsts,
        )

    def widened(self) -> _Tableau:
        """A copy with one structural column per variable, each copy holding
        its kept column's entries and nonbasic."""
        col_of, k = self.col_of, self.num_vars
        n = len(col_of)
        if n == k:
            return self.copy()
        shift, firsts = n - k, self.firsts
        return _Tableau(
            [[row[c] for c in col_of] + row[k:] for row in self.rows],
            list(self.dens),
            [firsts[b] if b < k else b + shift for b in self.basis],
            self.ncols + shift, n, self.art_start + shift, self.exact, self.tol,
            range(n), range(n),
        )

    def value(self, num, den):
        return Fraction(num, den) if self.exact else num

    def _reduced(self, row: list, den):
        """row over den with the gcd of all of them divided out (EXACT)."""
        if self.exact:
            g = gcd(*row, den)
            if g > 1:
                return [v // g for v in row], den // g
        return row, den

    def _eliminate(self, row: list, den, q, prow: list, p):
        """row/den minus q/den times the unit row prow/p, whose entry in the
        column q sits in is 1: (row*p - q*prow) over den*p, reduced."""
        if p == 1:
            return self._reduced([a - q * b for a, b in zip(row, prow)], den)
        return self._reduced([a * p - q * b for a, b in zip(row, prow)], den * p)

    def set_objective(self, costs, den=1):
        obj = list(costs) + [0 if self.exact else 0.0]
        for i, bv in enumerate(self.basis):
            if obj[bv] != 0:
                # row i over its denominator is the unit row of basic column bv
                obj, den = self._eliminate(obj, den, obj[bv], self.rows[i], self.dens[i])
        self.obj, self.obj_den = obj, den

    def vertex(self) -> list:
        """The basic solution per variable, 0 on each copy of a column."""
        x = [self.value(0 if self.exact else 0.0, 1)] * len(self.col_of)
        for i, bv in enumerate(self.basis):
            if bv < self.num_vars:
                x[self.firsts[bv]] = self.value(self.rows[i][self.ncols], self.dens[i])
        return x

    @property
    def objective_value(self):
        return self.value(-self.obj[self.ncols], self.obj_den)

    def pivot(self, i, j):
        # Changed rows get new lists; no row list is written into (see copy).
        row, p = self.rows[i], self.rows[i][j]
        if self.exact:
            # Over denominator p the row has a 1 in column j.  p < 0 only on a
            # pivot driving a leftover artificial out of the basis.
            if p < 0:
                row, p = [-v for v in row], -p
            row, p = self._reduced(row, p)
        else:
            inv = 1 / p
            row, p = [v * inv for v in row], 1
        self.rows[i], self.dens[i] = row, p
        for k, other in enumerate(self.rows):
            if k != i and other[j] != 0:
                self.rows[k], self.dens[k] = self._eliminate(
                    other, self.dens[k], other[j], row, p
                )
        if self.obj is not None and self.obj[j] != 0:
            self.obj, self.obj_den = self._eliminate(self.obj, self.obj_den, self.obj[j], row, p)
        self.basis[i] = j

    def optimize(self, allowed_cols) -> str:
        """Minimize the current objective with Bland's rule."""
        rhs = self.ncols
        for _ in range(_MAX_PIVOTS):
            entering = -1
            for j in allowed_cols:
                if self.obj[j] < -self.tol:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            # Least ratio rhs/a over rows with a > 0, ties to the least basic
            # variable.  Ratios are compared cross-multiplied, in which the row
            # denominators cancel.
            leaving = -1
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > self.tol:
                    if leaving >= 0:
                        diff = row[rhs] * best_a - best_rhs * a
                        if diff > 0 or (diff == 0 and self.basis[i] > self.basis[leaving]):
                            continue
                    leaving, best_rhs, best_a = i, row[rhs], a
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
        raise LPNumericalFailure("simplex did not terminate within the pivot cap")


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[Sequence, str, object]],
    mode: LPMode = LPMode.EXACT,
) -> LPResult:
    """Decide whether rows (coeffs, sense, rhs) and x >= 0 have a solution.

    A feasible result's x is the basic solution phase one reaches, and its
    optimum() and bound() optimize objectives over the same rows without
    repeating phase one.
    """
    exact = mode is LPMode.EXACT
    tol = 0 if exact else _FLOAT_TOL
    zero, one = (0, 1) if exact else (0.0, 1.0)

    # Standard form: normalize rhs >= 0, add slack/surplus, artificials where
    # needed.  Each row is converted once, to numerators over a denominator.
    work_rows: list[tuple[list, object]] = []
    senses: list[str] = []
    for coeffs, sense, rhs in rows:
        if len(coeffs) != num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        nums, den = _numerators([*coeffs, rhs], exact)
        if nums[-1] < 0:
            nums = [-c for c in nums]
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        work_rows.append((nums, den))
        senses.append(sense)

    # Each variable's column, numbered in order of first appearance; a column
    # equal to an earlier one is left out (see the module docstring).
    columns = list(zip(*(nums[:-1] for nums, _ in work_rows))) or [()] * num_vars
    index: dict = {}
    col_of = [index.setdefault(column, len(index)) for column in columns]
    firsts = [columns.index(column) for column in index]
    kept = len(firsts)

    n_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_art = sum(1 for s in senses if s in (">=", "="))
    ncols = kept + n_slack + n_art
    art_start = kept + n_slack

    tableau_rows: list[list] = []
    dens: list = []
    basis: list[int] = []
    slack_i = art_i = 0
    for (nums, den), sense in zip(work_rows, senses):
        # slack and artificial entries are +-1, numerators +-den
        extra = [zero] * (n_slack + n_art)
        if sense != "=":
            extra[slack_i] = den if sense == "<=" else -den
            basic = kept + slack_i
            slack_i += 1
        if sense != "<=":
            extra[n_slack + art_i] = den
            basic = art_start + art_i
            art_i += 1
        structural = nums[:-1] if kept == num_vars else [nums[v] for v in firsts]
        tableau_rows.append(structural + extra + nums[-1:])
        dens.append(den)
        basis.append(basic)

    t = _Tableau(tableau_rows, dens, basis, ncols, kept, art_start, exact, tol, col_of, firsts)

    if n_art:
        t.set_objective([zero] * art_start + [one] * n_art)
        status = t.optimize(range(ncols))
        if status != OPTIMAL:
            raise LPNumericalFailure("phase one reported an unbounded objective")
        residual = t.objective_value
        if residual > tol:
            if not exact and residual < _FLOAT_AMBIGUOUS:
                raise LPNumericalFailure(
                    f"phase-one residual {residual!r} is inside the ambiguous band"
                )
            return LPResult(INFEASIBLE)
        # Drive leftover artificials out of the basis, last row first; drop
        # redundant rows.
        for i in reversed(range(len(t.basis))):
            if t.basis[i] >= art_start:
                j = next((j for j in range(art_start) if abs(t.rows[i][j]) > tol), None)
                if j is None:
                    del t.rows[i], t.dens[i], t.basis[i]
                else:
                    t.pivot(i, j)

    return LPResult(OPTIMAL, t.vertex(), _start=t)


def _phase_two(t: _Tableau, costs: list, den, maximize: bool):
    """The min (max) of the structural columns' costs over den, from phase
    one's feasible basis in t, which ends at an optimal one; None if unbounded."""
    if maximize:
        costs = [-c for c in costs]
    t.set_objective(costs + [0 if t.exact else 0.0] * (t.ncols - t.num_vars), den)
    if t.optimize(range(t.art_start)) == UNBOUNDED:
        return None
    value = t.objective_value
    return -value if maximize else value
