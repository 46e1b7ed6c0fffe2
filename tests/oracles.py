"""Independent oracles the tests check the library against.

Everything here is deliberately written on different foundations than the
package: the LP solver is a single-phase big-M tableau on floats (the package
uses exact two-phase), constraint evaluation is pointwise boolean recursion
(the package uses set algebra), and the branch enumerator below works over
explicit world enumeration with per-branch signature dedup (the package
factors the space by components and signature classes up front).

reference_solve_lp is the other kind of oracle: the package's exact simplex
as it was written on Fraction arithmetic, before it pivoted on integer
numerators over per-row denominators.  Both make the same pivots, so the two
must agree on every status, vertex, value and final basis.

reference_bounds is a third kind: the package's own walk and leaf ranges,
folded as tighten and entails folded them before a fold could settle, over
every feasible leaf with no early exit, and at epsilon/2 a second whole fold.

reference_couple and reference_spread_product are the engine's witness
assembly as it was written on Fraction arithmetic, before it summed integer
numerators over one denominator: the two must build equal distributions.
reference_couple takes every component's vertex from the reference simplex,
so it also checks the engine's reading of a one-atom component's vertex
straight off its box.

The engine keeps its boxes as integers over one denominator per engine
(engine.denominator).  The reference walk and its LP rows keep Fractions;
on_grid and grid_keys move a bound onto the engine's grid only where the two
are compared, and assert that it lies on it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from tplp.grounder import PProgram
from tplp.intervals import ONE, ZERO, ProbInterval
from tplp.model import (
    Cmp,
    CNot,
    CAnd,
    COr,
    Connective,
    TimeRange,
    WeightKind,
    eval_texpr,
    substitute_time,
)
from tplp.psat import _Engine, _Walk
from tplp.worlds import WorldDistribution, set_bits

BIG_M = 1e7
TOL = 1e-9


# --- pointwise constraint evaluation ------------------------------------------------


def constraint_holds_at(c, t: int) -> bool:
    if isinstance(c, Cmp):
        v = eval_texpr(c.rhs)
        return {
            "<=": t <= v,
            "<": t < v,
            "=": t == v,
            "!=": t != v,
            ">": t > v,
            ">=": t >= v,
        }[c.op]
    if isinstance(c, TimeRange):
        return eval_texpr(c.lo) <= t <= eval_texpr(c.hi)
    if isinstance(c, CNot):
        return not constraint_holds_at(c.child, t)
    if isinstance(c, CAnd):
        return constraint_holds_at(c.left, t) and constraint_holds_at(c.right, t)
    if isinstance(c, COr):
        return constraint_holds_at(c.left, t) or constraint_holds_at(c.right, t)
    raise TypeError(f"unknown constraint node {c!r}")


def weight_at(w, c, cal, t: int) -> Fraction:
    """Value of the weight function w at t, one point at a time: zero outside
    the (pointwise) solution set of c, else 1 for '#', 1/|sol| for uniform and
    the value of t's rank for a list."""
    sol = [u for u in cal.points if constraint_holds_at(c, u)]
    if t not in sol:
        return Fraction(0)
    if w.kind is WeightKind.SHARP:
        return Fraction(1)
    if w.kind is WeightKind.UNIFORM:
        return Fraction(1, len(sol))
    return w.values[sol.index(t)]


# --- second simplex: single-phase big-M on floats ------------------------------------


def bigm_solve(n: int, rows, objective=None, maximize=False):
    """Minimize (or maximize) objective over {x >= 0, rows}, big-M style.

    rows: iterable of (coeffs, sense, rhs) with sense in "<=", ">=", "=".
    Returns (status, value) with status in "optimal" / "infeasible" /
    "unbounded".
    """
    table = []
    senses = []
    for coeffs, sense, rhs in rows:
        coeffs = [float(c) for c in coeffs]
        rhs = float(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        table.append((coeffs, sense, rhs))
        senses.append(sense)

    m = len(table)
    nslack = sum(1 for s in senses if s != "=")
    nart = sum(1 for s in senses if s != "<=")
    width = n + nslack + nart
    mat = []
    basis = []
    si = ai = 0
    art_cols = []
    for coeffs, sense, rhs in table:
        row = coeffs + [0.0] * (nslack + nart) + [rhs]
        if sense == "<=":
            row[n + si] = 1.0
            basis.append(n + si)
            si += 1
        elif sense == ">=":
            row[n + si] = -1.0
            si += 1
            row[n + nslack + ai] = 1.0
            basis.append(n + nslack + ai)
            art_cols.append(n + nslack + ai)
            ai += 1
        else:
            row[n + nslack + ai] = 1.0
            basis.append(n + nslack + ai)
            art_cols.append(n + nslack + ai)
            ai += 1
        mat.append(row)

    cost = [0.0] * (width + 1)
    if objective is not None:
        sign = -1.0 if maximize else 1.0
        for j, c in enumerate(objective):
            cost[j] = sign * float(c)
    for j in art_cols:
        cost[j] = BIG_M

    # reduced-cost row
    z = list(cost)
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb:
            for j in range(width + 1):
                z[j] -= cb * mat[i][j]

    for _ in range(20000):
        enter = -1
        for j in range(width):
            if z[j] < -1e-7:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = mat[i][enter]
            if a > TOL:
                ratio = mat[i][width] / a
                if best is None or ratio < best - TOL or (
                    abs(ratio - best) <= TOL and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", None
        piv = mat[leave][enter]
        mat[leave] = [v / piv for v in mat[leave]]
        for i in range(m):
            if i != leave and abs(mat[i][enter]) > 0:
                f = mat[i][enter]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[leave])]
        f = z[enter]
        z = [a - f * b for a, b in zip(z, mat[leave])]
        basis[leave] = enter
    else:
        raise RuntimeError("big-M simplex did not terminate")

    # Residuals of genuinely feasible systems sit at float-noise level, while
    # the smallest real conflict in these programs is the epsilon shift (1e-6),
    # so 1e-7 separates the two cleanly.
    for i, bv in enumerate(basis):
        if bv in art_cols and mat[i][width] > 1e-7:
            return "infeasible", None
    if objective is None:
        return "optimal", 0.0
    value = 0.0
    x = [0.0] * width
    for i, bv in enumerate(basis):
        x[bv] = mat[i][width]
    for j, c in enumerate(objective):
        value += float(c) * x[j]
    return "optimal", value


# --- brute-force interval-PSAT over explicit worlds -----------------------------------


class BruteForce:
    """Enumerates branch choices and solves each LP over explicit worlds."""

    def __init__(self, pp: PProgram, extra_formulas=(), eps: float = 1e-6):
        atoms = []
        for cl in pp.clauses:
            atoms.append(cl.head)
            for f, _ in cl.body:
                atoms.extend(f.atoms)
        for f in extra_formulas:
            atoms.extend(f.atoms)
        if pp.base is not None:
            atoms.extend(pp.base.atoms)
        self.atoms = sorted({a.drop_span() for a in atoms}, key=lambda a: a.key())
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.n_worlds = 1 << len(self.atoms)
        self.eps = eps
        self.pp = pp

    def _sat(self, world: int, formula) -> bool:
        picks = [(world >> self.index[a]) & 1 for a in formula.atoms]
        if formula.connective is Connective.OR:
            return any(picks)
        return all(picks)

    def _branch_space(self):
        per_clause = []
        for cl in self.pp.clauses:
            options = [("head", None)]
            for k, (_, iv) in enumerate(cl.body):
                if float(iv.lo) - self.eps >= 0:
                    options.append(("low", k))
                if float(iv.hi) + self.eps <= 1:
                    options.append(("high", k))
            per_clause.append(options)
        return itertools.product(*per_clause)

    def _branch_rows(self, combo):
        rows = []
        for cl, (kind, k) in zip(self.pp.clauses, combo):
            if kind == "head":
                if cl.head_iv.lo > cl.head_iv.hi:
                    return None
                rows.append((("single", (cl.head,)), ">=", float(cl.head_iv.lo)))
                rows.append((("single", (cl.head,)), "<=", float(cl.head_iv.hi)))
            else:
                f, iv = cl.body[k]
                key = (f.connective.value, tuple(f.atoms))
                if kind == "low":
                    rows.append((key, "<=", float(iv.lo) - self.eps))
                else:
                    rows.append((key, ">=", float(iv.hi) + self.eps))
        return rows

    class _Formula:
        def __init__(self, connective, atoms):
            self.connective = connective
            self.atoms = atoms

    def _lp(self, rows, objective_formula=None):
        """Columns are distinct satisfaction signatures over the used formulas.

        Returns None when the branch is infeasible, (lo, hi) when an objective
        formula is given, and (0, 0) for a bare feasibility probe.
        """
        formulas: list[tuple[tuple, object]] = []
        for key, _, _ in rows:
            if key not in [k for k, _ in formulas]:
                conn = Connective.SINGLE if key[0] == "single" else Connective(key[0])
                formulas.append((key, self._Formula(conn, key[1])))
        probe = [f for _, f in formulas]
        if objective_formula is not None:
            obj_index = len(probe)
            probe.append(objective_formula)

        signatures: dict[tuple, int] = {}
        for w in range(self.n_worlds):
            sig = tuple(1 if self._sat(w, f) else 0 for f in probe)
            signatures[sig] = signatures.get(sig, 0) + 1
        cols = list(signatures)
        lp_rows = [([1.0] * len(cols), "=", 1.0)]
        for i, (key, _) in enumerate(formulas):
            for k2, sense, rhs in rows:
                if k2 == key:
                    lp_rows.append(([float(sig[i]) for sig in cols], sense, rhs))
        if objective_formula is None:
            status, _ = bigm_solve(len(cols), lp_rows)
            return (0.0, 0.0) if status == "optimal" else None
        objective = [float(sig[obj_index]) for sig in cols]
        lo_status, lo = bigm_solve(len(cols), lp_rows, objective, maximize=False)
        if lo_status != "optimal":
            return None
        hi_status, hi = bigm_solve(len(cols), lp_rows, objective, maximize=True)
        assert hi_status == "optimal"
        return lo, hi

    def consistent(self) -> bool:
        for combo in self._branch_space():
            rows = self._branch_rows(combo)
            if rows is None:
                continue
            if self._lp(rows) is not None:
                return True
        return False

    def tighten(self, formula):
        best_lo = best_hi = None
        for combo in self._branch_space():
            rows = self._branch_rows(combo)
            if rows is None:
                continue
            result = self._lp(rows, formula)
            if result is None:
                continue
            lo, hi = result
            best_lo = lo if best_lo is None else min(best_lo, lo)
            best_hi = hi if best_hi is None else max(best_hi, hi)
        return (best_lo, best_hi)


def grid_distributions(n_worlds: int, step_denominator: int = 20):
    """All rational distributions over n_worlds with masses in k/denominator."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for combo in compositions(step_denominator, n_worlds):
        yield [Fraction(k, step_denominator) for k in combo]


# --- reference witness assembly -----------------------------------------------------


def reference_couple(engine, keys: dict[int, tuple]) -> WorldDistribution:
    """engine.couple as written on Fractions: the component marginals, each
    the vertex reference_solve_lp finds for the component's boxes (one-atom
    components included), coupled along the unit interval, one Fraction sum
    per segment."""
    gmask = 0  # the joint world at the bottom of the interval
    flips: dict[Fraction, list[int]] = {}  # point -> the atom sets that change there
    for comp in engine.components:
        key = keys.get(comp.cid)
        if key is None:
            continue
        boxes = {fid: (Fraction(lo, engine.denominator), Fraction(hi, engine.denominator))
                 for fid, lo, hi in key}
        x = reference_solve_lp(len(comp.classes), fraction_lp_rows(engine, comp, boxes)).x
        steps = [(comp.global_mask(rep), v) for (_, _, rep), v in zip(comp.classes, x) if v]
        gmask |= steps[0][0]
        # each class but the last ends where the next one's world begins
        ends = itertools.accumulate(v for _, v in steps[:-1])
        for (below, _), (world, _), point in zip(steps, steps[1:], ends):
            flips.setdefault(point, []).append(below ^ world)
    masses: dict[int, Fraction] = {}
    lo = ZERO
    for point in sorted(flips) + [ONE]:
        masses[gmask] = masses.get(gmask, ZERO) + (point - lo)
        for atoms in flips.get(point, ()):
            gmask ^= atoms
        lo = point
    return WorldDistribution(engine.base, masses)


def reference_spread_product(engine, comp_qs: dict[int, list[Fraction]]) -> WorldDistribution:
    """engine.spread_product as written on Fractions: one Fraction product
    per world per component."""
    masses: dict[int, Fraction] = {0: ONE}
    for comp in engine.components:
        q = comp_qs[comp.cid]
        expanded: list[tuple[int, Fraction]] = []
        for (members, size, _), qc in zip(comp.classes, q):
            if qc == 0:
                continue
            share = qc / size
            expanded.extend((comp.global_mask(w), share) for w in set_bits(members))
        # components hold disjoint atoms, so every product world is new
        masses = {g | a: p * share for g, p in masses.items() for a, share in expanded}
    return WorldDistribution(engine.base, masses)


# --- reference leaf walk ------------------------------------------------------------


def reference_leaves(engine, eps: Fraction):
    """(box key per component, feasible) of each leaf of reference_leaf_rows,
    its rows reduced to the boxes they allow only at the leaf; the leaf is
    feasible when reference_solve_lp finds every component's box rows
    feasible, one-atom components included.  The boxes are Fractions until
    the keys are built, which moves them onto the engine's grid (grid_keys).

    A walk of the engine at eps, psat._Walk(engine, eps), must yield the keys
    of the feasible leaves, in the same order, and count every leaf in its
    own walked, feasible or not.
    """
    for rows in reference_leaf_rows(engine, eps):
        boxes = row_boxes(rows)
        by_comp = {}
        for fid, box in boxes.items():
            by_comp.setdefault(engine._fid_comp[fid], {})[fid] = box
        yield grid_keys(engine, boxes), all(
            reference_solve_lp(
                len(engine.components[cid].classes),
                fraction_lp_rows(engine, engine.components[cid], comp_boxes),
            ).status
            != "infeasible"
            for cid, comp_boxes in by_comp.items()
        )


def row_boxes(rows) -> dict:
    """{fid: (lo, hi)} for the formulas that rows (fid, sense, rhs) narrow
    below [0, 1], each the intersection of its rows."""
    boxes = {}
    for fid, sense, rhs in rows:
        lo, hi = boxes.get(fid, (Fraction(0), Fraction(1)))
        boxes[fid] = (max(lo, rhs), hi) if sense == ">=" else (lo, min(hi, rhs))
    return {fid: box for fid, box in boxes.items() if box != (0, 1)}


def on_grid(engine, q: Fraction) -> int:
    """q as an integer over the engine's denominator, which must be exact."""
    n = q * engine.denominator
    assert n.denominator == 1, (q, engine.denominator)
    return n.numerator


def grid_keys(engine, boxes: dict) -> dict[int, tuple]:
    """The engine's box keys of Fraction boxes {fid: (lo, hi)}: per
    component its boxes (fid, lo, hi) in fid order, bounds on the grid."""
    keys = {}
    for fid in sorted(boxes):
        lo, hi = boxes[fid]
        keys.setdefault(engine._fid_comp[fid], []).append(
            (fid, on_grid(engine, lo), on_grid(engine, hi))
        )
    return {cid: tuple(key) for cid, key in keys.items()}


def fraction_lp_rows(engine, comp, boxes: dict):
    """The LP of comp's Fraction boxes {fid: (lo, hi)}: masses summing to 1,
    then per formula in ascending fid order "<= hi" when hi < 1 and ">= lo"
    when lo > 0."""
    out = [([ONE] * len(comp.classes), "=", ONE)]
    for fid in sorted(boxes):
        lo, hi = boxes[fid]
        if hi < 1:
            out.append((list(engine._coeffs[fid]), "<=", hi))
        if lo > 0:
            out.append((list(engine._coeffs[fid]), ">=", lo))
    return out


def reference_leaf_rows(engine, eps: Fraction):
    """The rows (fid, sense, rhs) of every leaf of the engine's walk as it was
    before its look-ahead: depth first in clause and choice order (HEAD_IN,
    then BODY_LOW and BODY_HIGH per conjunct), pruning only where a choice's
    own rows empty a formula's box, with each choice's rows built at the node
    that tries it."""

    def choice_rows(clause, k):
        head_fid, head_iv, body = clause
        if k == 0:
            if head_iv.lo > head_iv.hi:
                return None
            rows = []
            if head_iv.lo > 0:
                rows.append((head_fid, ">=", head_iv.lo))
            if head_iv.hi < 1:
                rows.append((head_fid, "<=", head_iv.hi))
            return rows
        fid, iv = body[(k - 1) // 2]
        if k % 2:
            bound = iv.lo - eps
            return None if bound < 0 else [(fid, "<=", bound)]
        bound = iv.hi + eps
        return None if bound > 1 else [(fid, ">=", bound)]

    def narrow(boxes, rows):
        undo = []
        for fid, sense, rhs in rows:
            old = boxes.get(fid, (Fraction(0), Fraction(1)))
            lo, hi = old
            if sense == ">=":
                lo = max(lo, rhs)
            else:
                hi = min(hi, rhs)
            if lo > hi:
                restore(boxes, undo)
                return None
            undo.append((fid, old))
            boxes[fid] = (lo, hi)
        return undo

    def restore(boxes, undo):
        for fid, old in reversed(undo):
            boxes[fid] = old

    clauses = engine.clauses
    if not clauses:
        yield []
        return
    boxes = {}
    path = []
    tries = [0]
    while tries:
        depth = len(tries) - 1
        if len(path) > depth:
            restore(boxes, path.pop()[1])
        clause = clauses[depth]
        k = tries[-1]
        if k == 1 + 2 * len(clause[2]):
            tries.pop()
            continue
        tries[-1] = k + 1
        rows = choice_rows(clause, k)
        undo = None if rows is None else narrow(boxes, rows)
        if undo is None:
            continue
        path.append((rows, undo))
        if depth + 1 < len(clauses):
            tries.append(0)
        else:
            yield [row for taken, _ in path for row in taken]


# --- reference fold: every feasible leaf, nothing settled ----------------------------


def reference_bounds(pp: PProgram, formulas, opts, eps: Fraction):
    """Fold every feasible leaf of a fresh engine's walk at eps, never
    settling it, so with no early exit: (extra fids, {fid: (least, greatest
    mass)} or None when no leaf is feasible, the walk's own walked count)."""
    engine = _Engine(pp, opts, formulas)
    walk = _Walk(engine, eps)
    bounds = None
    for keys in walk:
        ranges = engine.mass_ranges(keys)
        if bounds is None:
            bounds = dict(ranges)
            continue
        for fid, (lo, hi) in ranges.items():
            have_lo, have_hi = bounds[fid]
            bounds[fid] = (min(lo, have_lo), max(hi, have_hi))
    return engine.extra_fids, bounds, walk.walked


def reference_tighten(pp: PProgram, formulas, opts):
    """(intervals, branch_count, boundary_sensitive) from two whole folds,
    at epsilon and at epsilon/2; None for an inconsistent program."""
    fids, bounds, count = reference_bounds(pp, formulas, opts, opts.epsilon)
    if bounds is None:
        return None
    _, probe, _ = reference_bounds(pp, formulas, opts, opts.epsilon / 2)
    return [ProbInterval(*bounds[fid]) for fid in fids], count, probe != bounds


def reference_entails(pp: PProgram, query, calendar, opts):
    """(per time (t, bounds, target, holds), branch_count) of a query with a
    non-empty window, from the whole fold at epsilon; None for an
    inconsistent program."""
    window = query.annot.instant(calendar)
    instances = [substitute_time(query.formula, t) for t, _ in window]
    fids, bounds, count = reference_bounds(pp, instances, opts, opts.epsilon)
    if bounds is None:
        return None
    per_time = []
    for (t, target), fid in zip(window, fids):
        bound = ProbInterval(*bounds[fid])
        per_time.append((t, bound, target, target.contains_interval(bound)))
    return per_time, count


# --- reference simplex: the exact two-phase tableau on Fractions ---------------------


class RefResult:
    """status, x and value of a reference solve; a feasibility-only solve
    keeps its phase-one tableau as start, whose optimum() runs phase two on a
    copy of it."""

    def __init__(self, status, x=None, value=None, start=None):
        self.status, self.x, self.value, self._start = status, x, value, start

    def optimum(self, objective, maximize=False):
        if self.status == "infeasible":
            return RefResult("infeasible")
        return _ref_phase_two(self._start.copy(), objective, maximize)


class RefTableau:
    def __init__(self, rows, basis, ncols, num_vars, art_start):
        self.rows = rows  # lists of Fractions, last entry is the rhs
        self.basis = basis
        self.ncols = ncols
        self.num_vars = num_vars
        self.art_start = art_start
        self.obj = None  # reduced costs, last entry is -value

    def copy(self):
        return RefTableau(
            list(self.rows), list(self.basis), self.ncols, self.num_vars, self.art_start
        )

    def set_objective(self, costs):
        obj = list(costs) + [Fraction(0)]
        for i, bv in enumerate(self.basis):
            coeff = obj[bv]
            if coeff != 0:
                obj = [a - coeff * b for a, b in zip(obj, self.rows[i])]
        self.obj = obj

    def pivot(self, i, j):
        row = [v / self.rows[i][j] for v in self.rows[i]]
        self.rows[i] = row
        for k, other in enumerate(self.rows):
            if k != i and other[j] != 0:
                self.rows[k] = [a - other[j] * b for a, b in zip(other, row)]
        if self.obj is not None and self.obj[j] != 0:
            self.obj = [a - self.obj[j] * b for a, b in zip(self.obj, row)]
        self.basis[i] = j

    def optimize(self, allowed_cols):
        """Minimize the objective with Bland's rule: the least improving
        column enters, the least ratio leaves, ties to the least basic index."""
        while True:
            entering = next((j for j in allowed_cols if self.obj[j] < 0), None)
            if entering is None:
                return "optimal"
            leaving, best = None, None
            for i, row in enumerate(self.rows):
                if row[entering] > 0:
                    ratio = row[self.ncols] / row[entering]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)


def reference_solve_lp(num_vars, rows, objective=None, maximize=False):
    """solve_lp's contract on Fractions: two phases, Bland's rule, leftover
    artificials driven out in reverse row order and redundant rows dropped."""
    flipped = {"<=": ">=", ">=": "<=", "=": "="}
    work = []
    for coeffs, sense, rhs in rows:
        coeffs, rhs = [Fraction(c) for c in coeffs], Fraction(rhs)
        if rhs < 0:
            coeffs, rhs, sense = [-c for c in coeffs], -rhs, flipped[sense]
        work.append((coeffs, sense, rhs))
    n_slack = sum(sense != "=" for _, sense, _ in work)
    art_start = num_vars + n_slack
    ncols = art_start + sum(sense != "<=" for _, sense, _ in work)
    table, basis, artificials = [], [], []
    slack, art = num_vars, art_start
    for coeffs, sense, rhs in work:
        extra = [Fraction(0)] * (ncols - num_vars)
        if sense != "=":
            extra[slack - num_vars] = Fraction(1 if sense == "<=" else -1)
            if sense == "<=":
                basis.append(slack)
            slack += 1
        if sense != "<=":
            extra[art - num_vars] = Fraction(1)
            basis.append(art)
            artificials.append(art)
            art += 1
        table.append(coeffs + extra + [rhs])
    t = RefTableau(table, basis, ncols, num_vars, art_start)
    if artificials:
        t.set_objective([Fraction(int(j in artificials)) for j in range(ncols)])
        t.optimize(range(ncols))
        if -t.obj[ncols] > 0:
            return RefResult("infeasible")
        for i in reversed(range(len(t.basis))):
            if t.basis[i] < art_start:
                continue
            col = next((j for j in range(art_start) if t.rows[i][j] != 0), None)
            if col is None:
                del t.rows[i], t.basis[i]
            else:
                t.pivot(i, col)
    return _ref_phase_two(t, objective, maximize)


def _ref_phase_two(t, objective, maximize):
    if objective is not None:
        costs = [Fraction(c) for c in objective]
        if maximize:
            costs = [-c for c in costs]
        t.set_objective(costs + [Fraction(0)] * (t.ncols - t.num_vars))
        if t.optimize(range(t.art_start)) == "unbounded":
            return RefResult("unbounded")
    x = [Fraction(0)] * t.num_vars
    for i, bv in enumerate(t.basis):
        if bv < t.num_vars:
            x[bv] = t.rows[i][t.ncols]
    if objective is None:
        return RefResult("optimal", x, start=t)
    value = -t.obj[t.ncols]
    return RefResult("optimal", x, -value if maximize else value)
