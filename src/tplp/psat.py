"""Interval-PSAT solving over possible worlds.

A clause is satisfied when its head mass lies inside the head interval or some
body conjunct's mass falls strictly outside its interval.  The solver branches
over that disjunction per clause (HEAD_IN first, then per-conjunct low/high
violations).  Each choice pins one formula's mass to an interval box; strict
violations become closed boxes shifted by epsilon, and a program that is
infeasible with the shift but feasible at the boundary is reported as
UNKNOWN_EPS rather than silently classified.  A complete choice (a leaf) is
its boxes, the per-formula intersections, and exact linear programs whose
rows are the boxes' sides decide it: rows looser than a box are redundant, so
the boxes key every LP and memo.  A walk (_Walk) decides each leaf itself:
it yields the box keys of the feasible leaves only and counts every
box-consistent leaf it reaches (a result's branch_count), so each operation
is one fold over it: the first key for consistency, a running min and max for
tightening and entailment, the best entropy for the maximum-entropy model.
A fold whose bounds are all [0, 1] settles its walk, since every mass lies
there: the walk then only counts the leaves left.  Each walk owns its count,
its settled flag and its epsilon's body boxes; walks of one engine share only
the engine's tables and memos.  Tightening's probe at epsilon/2,
whose boxes contain those at epsilon, only asks whether some leaf there
leaves the bounds, and stops at the first that does.

Two reductions keep the LPs small without changing their answers:

* atoms are split into connected components of the constraint formulas, since
  masses in different components are realized independently (product measure);
* inside a component, worlds with the same satisfaction signature across the
  program's formulas are collapsed into one LP column carrying their count; a
  query formula's part in a component, its atoms there, is bounded by the
  classes inside it and those that meet it.  Parts in different components
  couple freely, so a formula's range is its parts' ranges folded by the
  ignorance conjunction or disjunction (and_ig, or_ig: the Frechet bounds).

A component with one atom needs no LP at all: its one box bounds the atom's
mass, which gives every answer the simplex would (feasibility, the vertex it
returns and the optimum of any objective), so the walk, the query ranges and
the entropy ascent all read the box.

Boxes are integers over one denominator per engine, D: the lcm of the
denominators of the program's distinct clause intervals and of epsilon/2, so
every walk (at epsilon, at epsilon/2 for tightening's probe, and at 0 for
UNKNOWN_EPS) narrows, compares and memoizes integer bounds.  A Fraction n/D is
made only where an answer needs one: an LP's right-hand sides and a one-atom
component's solve.

Witnesses are reassembled exactly: consistency witnesses couple the component
marginals segment-by-segment along the unit interval, and entropy witnesses
spread class masses uniformly over their worlds, which is the entropy-optimal
completion.  Both build integer masses over one common denominator and make
one Fraction per world of the result.  A coupling reads each one-atom
component's mass point straight off its box, as an integer over D, and flips
all the atoms that change at one point together; only multi-atom vertices
add to the common denominator.  Components in the same state (class table and
boxes) share one entropy ascent.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BaseTooLarge, InconsistentProgram, InvalidAnnotation, NonConvergence
from .grounder import PProgram
from .intervals import ONE, ZERO, ProbInterval, and_ig, or_ig
from .model import BasicFormula, Calendar, Connective, substitute_time, validate_annotation
from .parser import Query
from .simplex import INFEASIBLE, OPTIMAL, LPResult, solve_lp
from .worlds import WorldDistribution, set_bits

# Frank-Wolfe stops once a sweep raises the entropy (nats) by less than this,
# and gives up with NonConvergence after this many sweeps.
MAXENT_IMPROVEMENT = 1e-8
MAXENT_MAX_SWEEPS = 100_000


class Verdict(Enum):
    CONSISTENT = "CONSISTENT"
    INCONSISTENT = "INCONSISTENT"
    UNKNOWN_EPS = "UNKNOWN_EPS"


@dataclass(frozen=True)
class SolveOptions:
    epsilon: Fraction = Fraction(1, 10**6)
    max_world_atoms: int = 16

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_world_atoms < 1:
            raise ValueError("max_world_atoms must be at least 1")


@dataclass
class ConsistencyResult:
    verdict: Verdict
    witness: WorldDistribution | None
    branch_count: int


@dataclass
class TightenResult:
    intervals: list[ProbInterval]  # one per formula, in the order given
    branch_count: int
    boundary_sensitive: bool


@dataclass
class TimeVerdict:
    time: int
    bounds: ProbInterval
    target: ProbInterval
    holds: bool


@dataclass
class EntailmentResult:
    entailed: bool
    vacuous: bool
    per_time: list[TimeVerdict]
    branch_count: int


@dataclass
class MaxEntResult:
    distribution: WorldDistribution
    entropy: float
    branch_count: int


# --- world-space factorization ----------------------------------------------------


class _Component:
    """One connected block of atoms; worlds are local bitstrings over them."""

    __slots__ = ("cid", "atoms", "k", "space", "classes", "shape", "box_decided")

    def __init__(self, cid: int, atom_indices: tuple[int, ...]):
        self.cid = cid
        self.atoms = atom_indices  # global base indices, ascending
        self.k = len(atom_indices)
        self.space = 1 << self.k  # number of local worlds
        self.classes: list[tuple[int, int, int]] = []  # (members, count, rep world)
        self.shape = 0  # the number of its class table among the engine's
        # One atom split into its true and false worlds, the classes with
        # coefficients (1, 0): its rows' box decides its LPs (see _BoxSolve).
        self.box_decided = False

    def local(self, connective: Connective, atoms) -> tuple[Connective, tuple[int, ...]]:
        """A formula over the base indices atoms (a set), by its atoms'
        ascending local positions."""
        return connective, tuple(p for p, a in enumerate(self.atoms) if a in atoms)

    def _pattern(self, p: int) -> int:
        half = 1 << p
        block = ((1 << half) - 1) << half
        length = half << 1
        while length < self.space:
            block |= block << length
            length <<= 1
        return block

    def formula_mask(self, connective: Connective, positions) -> int:
        """The local worlds of a formula over the local atom positions."""
        masks = [self._pattern(p) for p in positions]
        out = masks[0]
        for m in masks[1:]:
            out = (out | m) if connective is Connective.OR else (out & m)
        return out

    def split_classes(self, masks: list[int]):
        classes = [(1 << self.space) - 1]
        for m in masks:
            nxt = []
            for c in classes:
                inside = c & m
                outside = c ^ inside
                if inside:
                    nxt.append(inside)
                if outside:
                    nxt.append(outside)
            classes = nxt
        self.classes = [
            (c, c.bit_count(), (c & -c).bit_length() - 1) for c in classes
        ]

    def coefficients(self, mask: int, inside: bool = False) -> tuple[int, ...]:
        """Per class, 1 when some of its worlds lie in mask (inside: all)."""
        return tuple(
            1 if (members & mask == members if inside else members & mask) else 0
            for members, _, _ in self.classes
        )

    def global_mask(self, local_world: int) -> int:
        out = 0
        for p in range(self.k):
            if (local_world >> p) & 1:
                out |= 1 << self.atoms[p]
        return out


# The shapes (see _Engine._split) of a one-atom component without a formula
# and with one, the atom itself.
_ONE_ATOM_SHAPES = ((1, ()), (1, ((Connective.SINGLE, (0,)),)))


class _Boxes(dict):
    """A walk's boxes {fid: (lo, hi)}, integers over the engine's
    denominator, holding only the formulas narrowed below unit, the box
    [0, 1]: a box replaced by _narrow is unit itself exactly when its formula
    had no entry."""

    __slots__ = ("unit",)

    def __init__(self, unit: tuple[int, int]):
        super().__init__()
        self.unit = unit


def _fits(boxes: _Boxes, box: tuple | None) -> bool:
    """Whether a choice's box (None when impossible outright) meets its
    formula's box: the test _narrow makes, without narrowing."""
    if box is None:
        return False
    fid, lo, hi = box
    have_lo, have_hi = boxes.get(fid, boxes.unit)
    return lo <= have_hi and have_lo <= hi


def _narrow(boxes: _Boxes, box: tuple) -> tuple | None:
    """Intersect a choice's box with its formula's box: the value it replaced,
    or None (boxes unchanged) when the intersection is empty.  The entry is
    written only when it changes, so boxes.get(fid, boxes.unit) is the value
    returned exactly when the choice narrowed nothing."""
    fid, lo, hi = box
    old = boxes.get(fid, boxes.unit)
    if lo <= old[0]:
        lo = old[0]
    if hi >= old[1]:
        hi = old[1]
    if lo > hi:
        return None
    if lo is not old[0] or hi is not old[1]:
        boxes[fid] = (lo, hi)
    return old


def _restore(boxes: _Boxes, fid: int, old: tuple) -> None:
    if old is boxes.unit:
        boxes.pop(fid, None)
    else:
        boxes[fid] = old


def _limit_denominator(x: float, limit: int) -> Fraction:
    """Fraction(x).limit_denominator(limit) in integer arithmetic: the same
    continued fraction of x, with CPython 3.12's test of which of the last
    convergent and the semiconvergent below the limit lies nearer (the
    convergent on a tie)."""
    n, d = x.as_integer_ratio()
    if d <= limit:
        return Fraction(n, d)
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (limit - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


class _BoxSolve:
    """solve_lp's answers for a one-atom component's box, whose bounds are
    integers over denominator.

    The component's two classes are the atom's true and false worlds, so its
    one box bounds the one free mass by an interval.  The two-phase simplex
    with Bland's rule over the box's rows stops at the low end when a ">=" row
    (lo > 0) put an artificial into phase one, else at the high end; phase two
    moves to the end an objective favours, and makes no pivot when the
    objective is constant on the box."""

    __slots__ = ("lo", "hi", "status", "x")

    def __init__(self, key, denominator: int):
        ((_, lo, hi),) = key
        self.lo, self.hi = Fraction(lo, denominator), Fraction(hi, denominator)
        p = self.lo if lo > 0 else self.hi
        self.x = [p, ONE - p]
        self.status = OPTIMAL

    def optimum(self, objective, maximize: bool = False) -> LPResult:
        a, b = objective
        p = self.x[0] if a == b else self.hi if (a > b) == maximize else self.lo
        return LPResult(OPTIMAL, [p, ONE - p], a * p + b * (ONE - p))

    def bound(self, objective, maximize: bool = False) -> Fraction:
        return self.optimum(objective, maximize).value


class _Engine:
    """Shared state for one solving session over a ground unfolded program:
    the tables and memos its walks (_Walk) read.

    Every box bound is an integer over the engine's denominator: the lcm of
    the denominators of the program's distinct clause intervals and of
    epsilon/2, so the walks at epsilon, at epsilon/2 and at 0 all stay on its
    grid.  A Fraction is made only where an answer needs one."""

    def __init__(self, pp: PProgram, opts: SolveOptions, extra_formulas=()):
        if pp.base is None:
            raise ValueError("the solver needs a ground program; ground it first")
        # The world cap counts the program's own base.  Query atoms outside
        # it take the indices after its atoms, whose indices stay the same.
        n_base = len(pp.base)
        if n_base > opts.max_world_atoms:
            raise BaseTooLarge(n_base, opts.max_world_atoms)
        self.base = pp.base.extended(a for f in extra_formulas for a in f.atoms)

        # Canonical formula registry, fids in order of first registration: a
        # formula over one atom by its base index, any other by (connective,
        # atom index set).
        formula_atoms: list[tuple[Connective, frozenset[int]]] = []
        self._formula_atoms = formula_atoms
        singles: dict[int, int] = {}
        multis: dict[tuple, int] = {}

        def register(connective: Connective, atoms: list[int]) -> int:
            idxs = frozenset(atoms)
            if len(idxs) == 1:
                fid = singles.get(atoms[0])
                if fid is None:
                    fid = singles[atoms[0]] = len(formula_atoms)
                    formula_atoms.append((Connective.SINGLE, idxs))
                return fid
            fid = multis.get((connective, idxs))
            if fid is None:
                fid = multis[connective, idxs] = len(formula_atoms)
                formula_atoms.append((connective, idxs))
            return fid

        # A clause unfolded at several head points shares one body tuple, and
        # its clauses here share one body list, registered once; so do their
        # intervals, each a distinct interval object of the program.  Atoms
        # are named by their base indices, looked up by identity (indices).
        # A head is a formula over one atom, registered inline.
        self.clauses: list[tuple[int, ProbInterval, list[tuple[int, ProbInterval]]]] = []
        bodies: dict[int, list[tuple[int, ProbInterval]]] = {}  # keyed by id(cl.body)
        intervals: dict[int, ProbInterval] = {}  # keyed by id
        indices = self.base.indices
        heads = indices([cl.head for cl in pp.clauses])
        for cl, head in zip(pp.clauses, heads):
            head_fid = singles.get(head)
            if head_fid is None:
                head_fid = singles[head] = len(formula_atoms)
                formula_atoms.append((Connective.SINGLE, frozenset((head,))))
            body = bodies.get(id(cl.body))
            if body is None:
                body = bodies[id(cl.body)] = [
                    (register(f.connective, indices(f.atoms)), iv) for f, iv in cl.body
                ]
                intervals.update((id(iv), iv) for _, iv in body)
            intervals[id(cl.head_iv)] = cl.head_iv
            self.clauses.append((head_fid, cl.head_iv, body))
        n_program = len(formula_atoms)  # the fids below are the clauses'
        program_multis = list(multis.values())

        self.extra_fids = [register(f.connective, indices(f.atoms)) for f in extra_formulas]
        n_atoms = len(self.base)

        top = self.denominator = math.lcm(
            (opts.epsilon / 2).denominator,
            *(q.denominator for iv in intervals.values() for q in (iv.lo, iv.hi)),
        )
        self._unit = (0, top)
        scaled = {
            key: (iv.lo.numerator * (top // iv.lo.denominator),
                  iv.hi.numerator * (top // iv.hi.denominator))
            for key, iv in intervals.items()
        }

        # The leaf walk's epsilon-free tables, filled in one pass over the
        # clauses.  Per clause, the box of its HEAD_IN choice (None when the
        # head interval is empty) and its body (fid, lo, hi) per conjunct.
        # Per formula, the ascending indices of the clauses a change of its
        # box can leave without a choice (a HEAD_IN box of [0, 1] always
        # fits), flattened: formula fid's are
        # _watch[_watch_start[fid]:_watch_start[fid + 1]].  A body's rows and
        # distinct formulas are found once per body, not once per clause.
        self._bodies = []
        self._head_boxes = []
        watchers: list[list[int]] = [[] for _ in formula_atoms]
        per_body: dict[int, tuple[list, tuple[int, ...]]] = {}  # id(body) -> rows, fids
        for j, (head_fid, head_iv, body) in enumerate(self.clauses):
            entry = per_body.get(id(body))
            if entry is None:
                entry = per_body[id(body)] = (
                    [(fid, *scaled[id(iv)]) for fid, iv in body],
                    tuple(dict.fromkeys(fid for fid, _ in body)),
                )
            rows, fids = entry
            self._bodies.append(rows)
            lo, hi = scaled[id(head_iv)]
            self._head_boxes.append(None if lo > hi else (head_fid, lo, hi))
            if lo == 0 and hi == top:
                continue
            for fid in fids:
                watchers[fid].append(j)
            if lo <= hi and head_fid not in fids:
                watchers[head_fid].append(j)
        self._watch_start = array("i", list(itertools.accumulate(map(len, watchers), initial=0)))
        self._watch = array("i", list(itertools.chain.from_iterable(watchers)))

        # Connected components over atoms, via the program's formulas of
        # several atoms, numbered in the order of their union-find roots.  An
        # atom that no such formula links (a query atom outside the base
        # among them) is a component, and its own root, with no find.
        parent = list(range(n_atoms))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        linked: set[int] = set()
        for fid in program_multis:
            idxs = self._formula_atoms[fid][1]
            linked.update(idxs)
            it = iter(sorted(idxs))
            first = find(next(it))
            for other in it:
                r = find(other)
                if r != first:
                    parent[r] = first
        groups: dict[int, list[int]] = {}
        for a in sorted(linked):
            groups.setdefault(find(a), []).append(a)

        # Per program formula its component and its row coefficients over the
        # component's signature classes.  A one-atom component takes the
        # shared table of its shape (_ONE_ATOM_SHAPES) directly, and its
        # formula, if it has one, the atom's, its one row; a component of
        # several atoms is split over its formulas (_split).
        self.components: list[_Component] = []
        self._fid_comp: list[int] = [0] * n_program
        self._coeffs: list = [None] * n_program
        self._local_fid: list = [0] * n_program  # position among its component's; see _split
        self._shapes: dict = {}  # see _split
        one_atom: list = [None, None]  # per shape, without and with a formula: its table
        atom_comp = [0] * n_atoms
        wide = []  # the components of several atoms
        for a in range(n_atoms):
            members = groups.get(a)
            cid = len(self.components)
            if members is not None:
                comp = _Component(cid, tuple(members))  # ascending, as appended
                for m in members:
                    atom_comp[m] = cid
                wide.append(comp)
            elif a in linked:
                continue
            else:
                comp = _Component(cid, (a,))
                atom_comp[a] = cid
                fid = singles.get(a, n_program)
                has = fid < n_program
                table = one_atom[has]
                if table is None:
                    table = one_atom[has] = self._table(comp, _ONE_ATOM_SHAPES[has])
                comp.shape, comp.classes, rows = table
                comp.box_decided = has
                if has:
                    self._fid_comp[fid] = cid
                    self._coeffs[fid] = rows[0]
            self.components.append(comp)
        comp_fids: dict[int, list[int]] = {comp.cid: [] for comp in wide}
        for fid in program_multis:
            comp_fids[atom_comp[min(self._formula_atoms[fid][1])]].append(fid)
        for comp in wide:
            fids = comp_fids[comp.cid]
            fids.extend(
                fid for fid in map(singles.get, comp.atoms) if fid is not None and fid < n_program
            )
            fids.sort()
            for fid in fids:
                self._fid_comp[fid] = comp.cid
            self._split(comp, fids)

        # Each extra formula is answered per component its atoms touch, by its
        # part there: its atoms in it under its connective, whose least mass
        # sums the classes inside it and greatest the classes that meet it (no
        # program row tells a class's worlds apart).  No program formula spans
        # two components, so parts couple freely and and_ig or or_ig folds
        # their ranges.  Per component its parts (name, least coefficients,
        # greatest), named fid when whole, else (fid, cid); per formula of
        # several parts (fid, fold, names).
        self._parts: dict[int, list] = {}
        self._folds = []
        for fid in dict.fromkeys(self.extra_fids):
            conn, idxs = self._formula_atoms[fid]
            cids = sorted({atom_comp[a] for a in idxs})
            names = [fid] if len(cids) == 1 else [(fid, cid) for cid in cids]
            for cid, name in zip(cids, names):
                comp = self.components[cid]
                mask = comp.formula_mask(*comp.local(conn, idxs))
                part = (name, comp.coefficients(mask, True), comp.coefficients(mask))
                self._parts.setdefault(cid, []).append(part)
            if len(cids) > 1:
                self._folds.append((fid, or_ig if conn is Connective.OR else and_ig, names))
        # Keyed by (cid, the component's box key), for the engine's life: the
        # feasibility LPResult of a multi-atom component (see _solved) and
        # {part name: (least, greatest mass)}.  Keyed by component state (see
        # maxent_component): (class masses of greatest entropy, that entropy).
        self._solves: dict = {}
        self._ranges: dict = {}
        self._maxent_cache: dict = {}

    def _split(self, comp: _Component, fids: list[int]) -> None:
        """Split comp's worlds, comp of several atoms, into the signature
        classes of the program formulas fids, all inside comp, and set their
        row coefficients.

        Both depend only on comp's shape: its atom count and, per formula in
        fid order, the connective and local atom positions.  Components of
        one shape share one class table and one coefficient tuple per
        formula, built by the first of them (_table) and numbered in order
        (comp.shape).  Each formula's row is also named by its position in
        fids (_local_fid), the same in every component of the shape."""
        shape = (comp.k, tuple(comp.local(*self._formula_atoms[fid]) for fid in fids))
        comp.shape, comp.classes, rows = self._table(comp, shape)
        for position, (fid, row) in enumerate(zip(fids, rows)):
            self._coeffs[fid] = row
            self._local_fid[fid] = position

    def _table(self, comp: _Component, shape: tuple) -> tuple:
        """The (number, class table, rows) of a component shape, split from
        comp the first time the engine meets the shape."""
        table = self._shapes.get(shape)
        if table is None:
            masks = [comp.formula_mask(*f) for f in shape[1]]
            comp.split_classes(list(dict.fromkeys(masks)))
            rows = [comp.coefficients(m) for m in masks]
            table = self._shapes[shape] = (len(self._shapes), comp.classes, rows)
        return table

    # -- leaves --

    def box_keys(self, boxes: dict) -> dict[int, tuple]:
        """Group the narrowed boxes {fid: (lo, hi)} by component: per
        component its box key, its boxes (fid, lo, hi) in fid order (a sorted
        tuple of integers, the engine's keys for its memos)."""
        by_comp: dict[int, list] = {}
        fid_comp = self._fid_comp
        for fid in sorted(boxes):
            by_comp.setdefault(fid_comp[fid], []).append((fid, *boxes[fid]))
        return {cid: tuple(key) for cid, key in by_comp.items()}

    def feasible(self, keys: dict[int, tuple]) -> bool:
        """Whether every component's boxes allow some masses, solved in
        component order up to the first that does not.  A one-atom
        component's box is not empty, so it always does."""
        components = self.components
        return all(
            self._solved(components[cid], keys[cid]).x is not None
            for cid in sorted(cid for cid in keys if not components[cid].box_decided)
        )

    def mass_ranges(self, keys) -> dict[int, tuple[Fraction, Fraction]]:
        """Least and greatest mass of every extra formula under one feasible
        leaf.  A part's are [0, 1] when the leaf leaves its component
        unnarrowed, else the optimal values of its boxes' solve, asked for
        as values only (bound: phase two over the solve's distinct columns,
        no vertex); a formula of several parts folds theirs."""
        out = {}
        for cid, parts in self._parts.items():
            key = keys.get(cid, ())
            memo = (cid, key)
            ranges = self._ranges.get(memo)
            if ranges is None:
                if not key:
                    # only the row summing the masses to 1: a vertex puts all
                    # mass on the class of the world with no atom, outside
                    # every part, or on the all-atom world's, inside it
                    ranges = dict.fromkeys((name for name, _, _ in parts), (ZERO, ONE))
                else:
                    start = self._solved(self.components[cid], key)
                    ranges = {
                        name: (start.bound(least), start.bound(most, True))
                        for name, least, most in parts
                    }
                self._ranges[memo] = ranges
            out.update(ranges)
        for fid, fold, names in self._folds:
            iv = functools.reduce(fold, (ProbInterval(*out.pop(name)) for name in names))
            out[fid] = (iv.lo, iv.hi)
        return out

    # -- per-component LPs --

    def _lp_rows(self, comp: _Component, key: tuple):
        """The LP of comp's boxes: masses summing to 1, then per formula in
        ascending fid order "<= hi" when hi < 1 and ">= lo" when lo > 0, each
        bound the exact Fraction of its integer over the denominator."""
        top = self.denominator
        out = [([1] * len(comp.classes), "=", 1)]
        for fid, lo, hi in key:
            if hi < top:
                out.append((list(self._coeffs[fid]), "<=", Fraction(hi, top)))
            if lo > 0:
                out.append((list(self._coeffs[fid]), ">=", Fraction(lo, top)))
        return out

    def _solved(self, comp: _Component, key: tuple) -> LPResult | _BoxSolve:
        """The feasibility solve of comp's boxes, whose x is the vertex a
        witness takes, whose bound() gives every least and greatest mass and
        whose optimum() every Frank-Wolfe direction.  A one-atom component's comes
        from its one box, with no LP and no memo; any other's is solved the
        first time a consumer asks for it and memoized for the engine's life,
        so each box key runs phase one once."""
        if comp.box_decided:
            return _BoxSolve(key, self.denominator)
        memo = (comp.cid, key)
        result = self._solves.get(memo)
        if result is None:
            result = self._solves[memo] = solve_lp(len(comp.classes), self._lp_rows(comp, key))
        return result

    # -- witnesses --

    def couple(self, keys: dict[int, tuple]) -> WorldDistribution:
        """Assemble one joint distribution whose component marginals are the
        vertices of a feasible leaf's box keys.

        Components are coupled along the unit interval (shared quantiles), so
        the support stays near the sum of the component supports instead of
        their product.  Formula masses only depend on per-component marginals,
        hence satisfaction is unaffected by the coupling choice.
        """
        # Walking up the unit interval, a component's world changes only where
        # its cumulative mass passes from one class with mass to the next, so
        # the joint world is swept from point to point, flipping at each the
        # atoms of the components that change there.  A component without a
        # box sits in its zero world, which holds no atom.  The points are
        # integers over a common denominator: the engine's, times whatever
        # the multi-atom components' vertices add.
        top = self.denominator
        gmask = 0  # the joint world at the bottom of the interval
        flips: dict[int, int] = {}  # point -> the atoms that change there
        marginals = []  # per multi-atom component with a box: (world, mass) per class with mass
        for cid, key in keys.items():
            comp = self.components[cid]
            if comp.box_decided:
                # The vertex (see _BoxSolve) gives the atom mass p, its box's
                # low end when above 0, else its high end: the atom holds up
                # to p, where it flips, unless p is 0 or 1.
                ((_, lo, hi),) = key
                p = lo or hi
                if p:
                    atom = 1 << comp.atoms[0]
                    gmask |= atom
                    if p < top:
                        flips[p] = flips.get(p, 0) ^ atom
                continue
            x = self._solved(comp, key).x
            marginals.append(
                [(comp.global_mask(rep), v) for (_, _, rep), v in zip(comp.classes, x) if v]
            )
        denominator = math.lcm(top, *(v.denominator for steps in marginals for _, v in steps))
        if denominator != top:
            scale = denominator // top
            flips = {p * scale: atoms for p, atoms in flips.items()}
        for steps in marginals:
            gmask |= steps[0][0]
            point = 0
            # each class but the last ends where the next one's world begins
            for (below, v), (world, _) in zip(steps, steps[1:]):
                point += v.numerator * (denominator // v.denominator)
                flips[point] = flips.get(point, 0) ^ below ^ world
        masses: dict[int, int] = {}
        lo = 0
        for point in sorted(flips) + [denominator]:
            masses[gmask] = masses.get(gmask, 0) + point - lo
            gmask ^= flips.get(point, 0)
            lo = point
        return WorldDistribution(self.base, masses, denominator=denominator)

    def spread_product(self, comp_qs: dict[int, list[Fraction]]) -> WorldDistribution:
        """Product over components with class masses spread uniformly inside
        each class (the entropy-maximal completion of the marginals).  Masses
        are integers over the product of the components' denominators, each
        the lcm of its class shares' q / size."""
        masses: dict[int, int] = {0: 1}
        denominator = 1
        for comp in self.components:
            shares = [
                (members, qc.numerator, qc.denominator * size)
                for (members, size, _), qc in zip(comp.classes, comp_qs[comp.cid])
                if qc
            ]
            d = math.lcm(*(den for _, _, den in shares))
            expanded: list[tuple[int, int]] = []
            for members, num, den in shares:
                share = num * (d // den)
                expanded.extend((comp.global_mask(w), share) for w in set_bits(members))
            # components hold disjoint atoms, so every product world is new
            masses = {g | a: n * share for g, n in masses.items() for a, share in expanded}
            denominator *= d
        return WorldDistribution(self.base, masses, denominator=denominator)

    # -- entropy maximization --

    def maxent_component(self, cid: int, key: tuple):
        """Frank-Wolfe ascent of sum q*ln(n/q) over one component polytope,
        the masses its box key allows.

        Directions come from the optima of the boxes' solve (exact LPs all
        started from its one phase-one tableau, or the box of a one-atom
        component), steps from a float ternary line search rationalized back
        onto the segment, so iterates stay exactly feasible.

        The ascent reads only the component's class table, its rows and its
        boxes, and is deterministic, so it runs once per component state: the
        shape, and the box key with each fid replaced by its local position.
        Components in one state share its answer.
        """
        comp = self.components[cid]
        local = self._local_fid
        memo = (comp.shape, tuple((local[fid], lo, hi) for fid, lo, hi in key))
        if memo in self._maxent_cache:
            return self._maxent_cache[memo]
        counts = [size for _, size, _ in comp.classes]
        log_counts = [math.log(c) for c in counts]

        def entropy(q) -> float:
            total = 0.0
            for qc, ln_n in zip(q, log_counts):
                fq = float(qc)
                if fq > 0:
                    total += fq * (ln_n - math.log(fq))
            return total

        if not key:
            total = comp.space
            q = [Fraction(c, total) for c in counts]
            result = (q, comp.k * math.log(2))
            self._maxent_cache[memo] = result
            return result

        start = self._solved(comp, key)
        if start.status == INFEASIBLE:
            raise InconsistentProgram("entropy maximization over an infeasible branch")
        q = start.x
        current = entropy(q)
        for _ in range(MAXENT_MAX_SWEEPS):
            grad = [
                ln_n - math.log(max(float(qc), 1e-300)) - 1.0
                for qc, ln_n in zip(q, log_counts)
            ]
            objective = [_limit_denominator(g, 10**9) for g in grad]
            vertex = start.optimum(objective, maximize=True).x
            direction = [sv - qv for sv, qv in zip(vertex, q)]
            # entropy(q + gamma*d) in floats, term by term as entropy() sums it
            terms = [
                (float(qv), float(dv), ln_n) for qv, dv, ln_n in zip(q, direction, log_counts)
            ]

            def on_segment(gamma: float) -> float:
                total = 0.0
                for a, b, ln_n in terms:
                    fq = a + gamma * b
                    if fq > 0:
                        total += fq * (ln_n - math.log(fq))
                return total

            lo, hi = 0.0, 1.0
            for _ in range(80):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if on_segment(m1) < on_segment(m2):
                    lo = m1
                else:
                    hi = m2
            gamma = _limit_denominator((lo + hi) / 2, 10**12)
            gamma = min(max(gamma, ZERO), ONE)
            candidate = [qv + gamma * dv for qv, dv in zip(q, direction)]
            gain = entropy(candidate) - current
            if gain > 0:
                q = candidate
                current += gain
            if gain < MAXENT_IMPROVEMENT:
                break
        else:
            raise NonConvergence(f"entropy maximization hit the {MAXENT_MAX_SWEEPS}-sweep cap")
        result = (q, current)
        self._maxent_cache[memo] = result
        return result


# --- the leaf walk ------------------------------------------------------------------


class _Walk(dict):
    """One walk of an engine's clause-choice tree at eps, which must lie on
    the engine's grid (as epsilon, epsilon/2 and 0 do).  Iterated once, it
    yields the box key per component {cid: key} of every feasible leaf, depth
    first in clause and choice order, and counts in walked every
    box-consistent leaf reached, feasible or not.  Once its fold sets settled,
    no later leaf can change the fold's answer: the walk decides no further
    leaf, only counts those it still reaches.  Walks of one engine share its
    tables and memos and nothing else, so they may interleave.

    Each choice pins one formula's mass to an interval box, and boxes track
    the running intersection per formula, so a leaf is its boxes.  An empty
    box prunes the subtree, which subsumes fact-vs-body-violation conflicts
    without an LP call.  The walk also checks ahead: a choice whose narrowing
    leaves some later clause on the changed formula with no choice that fits
    the boxes is pruned as if its own box were empty.  Boxes only shrink down
    a path, so no leaf below it was box-consistent and the leaves reached are
    those of the walk without the check.  The walk keeps its own stack, so
    the tree's depth (one level per clause) has no recursion limit.

    As a dict the walk maps a clause index to the boxes of its body choices
    at eps in choice order (BODY_LOW, then BODY_HIGH per conjunct; None for a
    choice impossible outright), built the first time the walk asks for them.
    """

    __slots__ = ("engine", "eps", "walked", "settled")

    def __init__(self, engine: _Engine, eps: Fraction):
        super().__init__()
        n, rest = divmod(eps.numerator * engine.denominator, eps.denominator)
        if rest:
            raise ValueError(f"{eps} is not a multiple of 1/{engine.denominator}")
        self.engine = engine
        self.eps = n  # as an integer over the engine's denominator
        self.walked = 0
        self.settled = False

    def __missing__(self, j: int) -> tuple:
        out = []
        eps, top = self.eps, self.engine.denominator
        for fid, lo, hi in self.engine._bodies[j]:
            low, high = lo - eps, hi + eps
            out.append(None if low < 0 else (fid, 0, low))
            out.append(None if high > top else (fid, high, top))
        boxes = self[j] = tuple(out)
        return boxes

    def __iter__(self):
        engine = self.engine
        if not engine.clauses:
            self.walked = 1
            yield {}
            return
        head_boxes = engine._head_boxes
        # At the root every box is [0, 1], which every possible choice fits.
        for j, head in enumerate(head_boxes):
            if head is None and all(choice is None for choice in self[j]):
                return
        unit = engine._unit
        boxes = _Boxes(unit)
        # Per clause with a choice in force: its formula and the box it replaced.
        path: list[tuple[int, tuple]] = []
        # Per open clause: the index of its next choice to try (0 is HEAD_IN,
        # k > 0 the body choice k - 1).
        tries = [0]
        last = len(engine.clauses) - 1
        while tries:
            depth = len(tries) - 1
            if len(path) > depth:
                _restore(boxes, *path.pop())
            k = tries[-1]
            if k:
                body = self[depth]
                if k > len(body):
                    tries.pop()
                    continue
                box = body[k - 1]
            else:
                box = head_boxes[depth]
            tries[-1] = k + 1
            old = None if box is None else _narrow(boxes, box)
            if old is None:
                continue
            fid = box[0]
            if boxes.get(fid, unit) is not old and self._dead_end(boxes, fid, depth):
                _restore(boxes, fid, old)
                continue
            path.append((fid, old))
            if depth < last:
                tries.append(0)
                continue
            self.walked += 1
            if self.settled:
                continue
            keys = engine.box_keys(boxes)
            if engine.feasible(keys):
                yield keys

    def _dead_end(self, boxes: _Boxes, fid: int, depth: int) -> bool:
        """Whether some clause after depth that formula fid's box can leave
        without a choice has no choice left that fits the boxes."""
        engine = self.engine
        watch, stop = engine._watch, engine._watch_start[fid + 1]
        for i in range(bisect.bisect_right(watch, depth, engine._watch_start[fid], stop), stop):
            j = watch[i]
            if not _fits(boxes, engine._head_boxes[j]) and not any(
                _fits(boxes, box) for box in self[j]
            ):
                return True
        return False


# --- public operations --------------------------------------------------------------


def _saturated(bounds: dict) -> bool:
    """Whether every bound is [0, 1], which holds every mass, so no leaf can
    move it."""
    return all(lo == 0 and hi == 1 for lo, hi in bounds.values())


def _bound_moves(engine: _Engine, eps: Fraction, bounds: dict) -> bool:
    """Whether some feasible leaf at eps gives an extra formula a mass outside
    its bounds, asked leaf by leaf up to the first that does."""
    if _saturated(bounds):
        return False
    return any(
        lo < bounds[f][0] or hi > bounds[f][1]
        for keys in _Walk(engine, eps)
        for f, (lo, hi) in engine.mass_ranges(keys).items()
    )


def _instance_bounds(pp: PProgram, formulas, opts: SolveOptions, undefined: str):
    """One engine over every query instance and its one fold at epsilon:
    (engine, least and greatest mass per extra formula over every feasible
    leaf, leaves walked); raises InconsistentProgram(undefined) when no leaf
    is feasible.  Once every bound is saturated the fold settles its walk,
    which then only counts the leaves left."""
    engine = _Engine(pp, opts, extra_formulas=formulas)
    walk = _Walk(engine, opts.epsilon)
    bounds: dict[int, tuple[Fraction, Fraction]] | None = None
    for keys in walk:
        ranges = engine.mass_ranges(keys)
        bounds = ranges if bounds is None else {
            f: (min(lo, bounds[f][0]), max(hi, bounds[f][1])) for f, (lo, hi) in ranges.items()
        }
        walk.settled = _saturated(bounds)
    if bounds is None:
        raise InconsistentProgram(undefined)
    return engine, bounds, walk.walked


def _first_leaf(pp: PProgram, opts: SolveOptions):
    """One engine and its walk at epsilon up to the first feasible leaf:
    (engine, that leaf's keys or None when none is, leaves walked)."""
    engine = _Engine(pp, opts)
    walk = _Walk(engine, opts.epsilon)
    return engine, next(iter(walk), None), walk.walked


def check_consistency(pp: PProgram, opts: SolveOptions = SolveOptions()) -> ConsistencyResult:
    """Search the clause branches for a feasible world distribution."""
    engine, keys, count = _first_leaf(pp, opts)
    if keys is not None:
        return ConsistencyResult(Verdict.CONSISTENT, engine.couple(keys), count)
    if next(iter(_Walk(engine, ZERO)), None) is not None:
        return ConsistencyResult(Verdict.UNKNOWN_EPS, None, count)
    return ConsistencyResult(Verdict.INCONSISTENT, None, count)


def tighten(
    pp: PProgram, formulas: list[BasicFormula], opts: SolveOptions = SolveOptions()
) -> TightenResult:
    """Tightest probability interval of each formula across all models
    (epsilon-closed), all from one walk.  boundary_sensitive tells whether
    halving epsilon moves any of them.

    At epsilon/2 every choice's box contains its box at epsilon (a body
    violation's box reaches epsilon/2 closer to the interval, and one
    impossible at epsilon may become possible), so every leaf's masses can
    only spread and the bounds at epsilon/2 contain those at epsilon: a bound
    moves exactly when some leaf at epsilon/2 leaves the bounds, and a
    saturated bound cannot."""
    engine, bounds, count = _instance_bounds(
        pp, formulas, opts, "tighten requires a consistent program"
    )
    moves = _bound_moves(engine, opts.epsilon / 2, bounds)
    intervals = [ProbInterval(*bounds[fid]) for fid in engine.extra_fids]
    return TightenResult(intervals, count, moves)


def entails(
    pp: PProgram,
    query: Query,
    calendar: Calendar,
    opts: SolveOptions = SolveOptions(),
) -> EntailmentResult:
    """Check that every model keeps the query formula inside its target interval
    at every solution point of the query constraint.  An annotation that
    fails validation raises InvalidAnnotation with its errors."""
    if query.annot is None:
        raise ValueError("entailment needs an annotated query")
    errors = [d for d in validate_annotation(query.annot, calendar) if d.is_error]
    if errors:
        raise InvalidAnnotation(errors)
    undefined = "entailment is undefined for an inconsistent program"
    window = query.annot.instant(calendar)
    if not window:
        _, keys, count = _first_leaf(pp, opts)
        if keys is None:
            raise InconsistentProgram(undefined)
        return EntailmentResult(True, True, [], count)
    instances = [substitute_time(query.formula, t) for t, _ in window]
    engine, bounds, count = _instance_bounds(pp, instances, opts, undefined)
    per_time: list[TimeVerdict] = []
    for (t, target), fid in zip(window, engine.extra_fids):
        bound = ProbInterval(*bounds[fid])
        per_time.append(TimeVerdict(t, bound, target, target.contains_interval(bound)))
    holds = all(v.holds for v in per_time)
    return EntailmentResult(holds, False, per_time, count)


def strong_witness(pp: PProgram, opts: SolveOptions = SolveOptions()) -> WorldDistribution | None:
    """A model keeping every annotated formula inside its interval, or None.

    This is stricter than consistency: no clause is allowed to escape through
    a body violation.  Useful where a construction presumes per-formula
    satisfaction rather than per-clause satisfaction.
    """
    engine = _Engine(pp, opts)
    boxes = _Boxes(engine._unit)
    for head, body in zip(engine._head_boxes, engine._bodies):
        for box in [head, *body]:
            if box is None or _narrow(boxes, box) is None:
                return None
    keys = engine.box_keys(boxes)
    return engine.couple(keys) if engine.feasible(keys) else None


def max_entropy_model(pp: PProgram, opts: SolveOptions = SolveOptions()) -> MaxEntResult:
    """The model with the greatest entropy among all feasible branches: the
    first leaf to reach it, since leaves with the same boxes share their
    maxent_component answers."""
    engine = _Engine(pp, opts)
    best_qs: dict[int, list[Fraction]] | None = None
    best_h = -1.0
    walk = _Walk(engine, opts.epsilon)
    for keys in walk:
        total = 0.0
        qs: dict[int, list[Fraction]] = {}
        for comp in engine.components:
            q, h = engine.maxent_component(comp.cid, keys.get(comp.cid, ()))
            qs[comp.cid] = q
            total += h
        if total > best_h:
            best_h, best_qs = total, qs
    if best_qs is None:
        raise InconsistentProgram("no feasible branch to maximize entropy over")
    distribution = engine.spread_product(best_qs)
    return MaxEntResult(distribution, best_h, walk.walked)
