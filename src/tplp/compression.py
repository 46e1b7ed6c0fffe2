"""Compression of the temporal attribute and probability evolution.

A world over time-extended atoms compresses into a thread: a map from each
timeless atom to the set of time points at which it holds.  Flattening is the
inverse direction.  On top of that sits the evolution construction: a family
of per-time world distributions over the timeless base is packed into a single
temporal program whose annotations carry one value per time slice, and the
family itself averages into one distribution over the time-extended base.

Verification of that construction deliberately supports two readings.  The
LITERAL reading checks the averaged distribution against the built program
directly; because the average carries a 1/|calendar| factor, per-slice masses
are diluted and generally fall below the slice intervals.  The CONDITIONAL
reading rescales to the slice (equivalently, checks each per-time distribution
against its own slice program) and passes whenever the inputs were models of
their slices.  Reports state both; neither reading is asserted as an
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    AtomNotInBase,
    InconsistentProgram,
    MissingTimeSlice,
    TimePointOutsideCalendar,
)
from .grounder import HerbrandBase, PClause, PProgram, unfold
from .intervals import ZERO, ProbInterval
from .model import (
    BasicFormula,
    Calendar,
    Cmp,
    PTProgram,
    TAtom,
    TConst,
    TimeRange,
    TPAnnotation,
    TPClause,
    TVar,
    WeightFunction,
    solve_constraint,
    substitute_time,
)
from .parser import PSkeleton, SkeletonFormula
from .psat import SolveOptions, Verdict, check_consistency, strong_witness
from .worlds import (
    World,
    WorldDistribution,
    formula_mass,
    ki_satisfies,
    mass_of_atoms,
)


@dataclass(frozen=True)
class CAtom:
    """Timeless (compressed) atom: predicate plus ground object arguments."""

    predicate: str
    args: tuple[str, ...] = ()

    def key(self):
        return (self.predicate, self.args)

    def at(self, t: int) -> TAtom:
        return TAtom(self.predicate, self.args, t)

    def __str__(self):
        inner = f"({','.join(self.args)})" if self.args else ""
        return f"{self.predicate}{inner}"


class CompressedBase:
    """Ordered, duplicate-free list of compressed atoms."""

    def __init__(self, atoms: Iterable[CAtom]):
        seen: dict[CAtom, None] = {}
        for a in atoms:
            seen.setdefault(a, None)
        self.atoms: tuple[CAtom, ...] = tuple(sorted(seen, key=CAtom.key))
        self._index = {a: i for i, a in enumerate(self.atoms)}
        self._hash = hash(self.atoms)

    def index_of(self, atom: CAtom) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise AtomNotInBase(f"compressed atom {atom} is not in the base") from None

    def __contains__(self, atom: CAtom) -> bool:
        return atom in self._index

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, CompressedBase) and self.atoms == other.atoms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CompressedBase({len(self.atoms)} atoms)"


@dataclass(frozen=True)
class Thread:
    """Map from compressed atoms to the time points at which they hold."""

    assignments: tuple[tuple[CAtom, frozenset[int]], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.assignments, key=lambda kv: kv[0].key()))
        object.__setattr__(self, "assignments", ordered)

    @classmethod
    def from_mapping(cls, mapping: Mapping[CAtom, Iterable[int]]) -> "Thread":
        return cls(tuple((a, frozenset(ts)) for a, ts in mapping.items()))

    @property
    def domain(self) -> tuple[CAtom, ...]:
        return tuple(a for a, _ in self.assignments)

    def times_of(self, atom: CAtom) -> frozenset[int]:
        for a, ts in self.assignments:
            if a == atom:
                return ts
        return frozenset()

    def __str__(self):
        inner = ", ".join(f"{a}->{{{','.join(map(str, sorted(ts)))}}}" for a, ts in self.assignments)
        return f"Thread({inner})"


@dataclass(frozen=True)
class TaggedWorld:
    """A timeless assignment stamped with the single time point it describes."""

    time: int
    assignment: World  # over a CompressedBase


def full_time_base(catoms: Iterable[CAtom], cal: Calendar) -> HerbrandBase:
    """The time-extended base: every compressed atom at every calendar point."""
    return HerbrandBase(ca.at(t) for ca in catoms for t in cal.points)


def compress(w: World, base: HerbrandBase, cal: Calendar) -> Thread:
    """Read a world off into per-atom time sets.  Inverse of flatten."""
    collected: dict[CAtom, set[int]] = {}
    for i, atom in enumerate(base.atoms):
        t = atom.time
        if t not in cal:
            raise TimePointOutsideCalendar(f"atom {atom} lies outside the calendar")
        ca = CAtom(atom.predicate, tuple(str(x) for x in atom.args))
        collected.setdefault(ca, set())
        if w.truth(i):
            collected[ca].add(t)
    return Thread.from_mapping(collected)


def flatten(th: Thread, cal: Calendar, base: HerbrandBase | None = None) -> World:
    """Rebuild the time-extended world asserting atom@t for each t in the thread."""
    for _, ts in th.assignments:
        for t in ts:
            if t not in cal:
                raise TimePointOutsideCalendar(f"time point {t} is not in the calendar")
    if base is None:
        base = full_time_base(th.domain, cal)
    mask = 0
    for ca, ts in th.assignments:
        for t in ts:
            mask |= 1 << base.index_of(ca.at(t))
    return World(mask, base)


def compress_distribution(ki: WorldDistribution, cal: Calendar) -> dict[Thread, Fraction]:
    """Push a world distribution through compression (injective, mass-preserving)."""
    out: dict[Thread, Fraction] = {}
    for w, p in ki.items():
        th = compress(w, ki.base, cal)
        out[th] = out.get(th, ZERO) + p
    return out


def thread_prob(kt: Mapping[Thread, Fraction], atom: CAtom, t: int) -> Fraction:
    """Mass of the threads holding the atom at time t."""
    return sum((p for th, p in kt.items() if t in th.times_of(atom)), ZERO)


# --- probability evolution -----------------------------------------------------------


@dataclass(frozen=True)
class EvolutionProfile:
    """Per-time world distributions over a shared compressed base."""

    interval: tuple[int, ...]
    dists: tuple[tuple[int, WorldDistribution], ...]

    def __post_init__(self):
        interval = tuple(self.interval)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "dists", tuple(self.dists))
        if any(a >= b for a, b in zip(interval, interval[1:])):
            raise ValueError("evolution interval must be strictly increasing")
        if tuple(t for t, _ in self.dists) != interval:
            raise ValueError("profile distributions must cover exactly the interval")
        if len({d.base for _, d in self.dists}) > 1:
            raise ValueError("profile distributions must share one compressed base")
        for t, d in self.dists:
            if not d.is_normalized:
                raise ValueError(f"distribution at time {t} is not normalized")

    @property
    def base(self) -> CompressedBase:
        return self.dists[0][1].base

    def dist_at(self, t: int) -> WorldDistribution:
        for tt, d in self.dists:
            if tt == t:
                return d
        raise MissingTimeSlice(f"profile has no distribution at time {t}")


def build_evolution_program(
    skeleton: PSkeleton,
    per_time: Mapping[str, Mapping[int, ProbInterval]],
    delta: Iterable[int],
) -> PTProgram:
    """Pack per-time interval annotations into one temporal program.

    Every formula of the skeleton becomes a temporal formula over a shared
    variable Y constrained to the (contiguous) interval, with one lower and
    one upper weight per time slice.
    """
    delta = tuple(sorted(set(delta)))
    cal = skeleton.calendar
    if not delta:
        raise ValueError("the evolution interval is empty")
    if any(t not in cal for t in delta):
        raise TimePointOutsideCalendar(f"interval {delta} is not inside the calendar")
    first, last = cal.points.index(delta[0]), cal.points.index(delta[-1])
    if cal.points[first : last + 1] != delta:
        raise ValueError(f"the evolution interval {delta} must be contiguous in the calendar")

    def annotation(slot_id: str) -> TPAnnotation:
        slices = per_time.get(slot_id, {})
        lowers, uppers = [], []
        for t in delta:
            if t not in slices:
                raise MissingTimeSlice(f"no annotation for formula {slot_id} at time {t}")
            lowers.append(slices[t].lo)
            uppers.append(slices[t].hi)
        y = TVar("Y")
        if len(delta) == 1:
            constraint = Cmp(y, "=", TConst(delta[0]))
        else:
            constraint = TimeRange(y, TConst(delta[0]), TConst(delta[-1]))
        return TPAnnotation(
            constraint, WeightFunction.list_of(lowers), WeightFunction.list_of(uppers)
        )

    def promote(sf: SkeletonFormula) -> BasicFormula:
        atoms = tuple(TAtom(a.predicate, a.args, TVar("Y")) for a in sf.atoms)
        return BasicFormula.of(sf.connective, atoms)

    clauses = []
    for i, cl in enumerate(skeleton.clauses):
        head = TAtom(cl.head.predicate, cl.head.args, TVar("Y"))
        head_annot = annotation(f"c{i}.head")
        body = tuple(
            (promote(f), annotation(f"c{i}.b{j}")) for j, f in enumerate(cl.body)
        )
        clauses.append(TPClause(head, head_annot, body))
    return PTProgram(cal, tuple(clauses))


def tagged_worlds(pi: EvolutionProfile):
    """The profile's support as (TaggedWorld, mass) pairs, slice by slice."""
    for t, dist in pi.dists:
        for world, p in dist.items():
            yield TaggedWorld(t, world), p


def flatten_tagged(tw: TaggedWorld, base: HerbrandBase) -> World:
    """Place a tagged timeless assignment at its time point in the extended base."""
    cbase = tw.assignment.base
    mask = 0
    for i, ca in enumerate(cbase.atoms):
        if tw.assignment.truth(i):
            mask |= 1 << base.index_of(ca.at(tw.time))
    return World(mask, base)


def evolution_distribution(pi: EvolutionProfile, cal: Calendar) -> WorldDistribution:
    """Average the tagged per-time assignments into one distribution over the
    time-extended base (each slice weighted 1/|calendar|).

    The tagging is not injective on all-false assignments: they flatten to the
    same empty world from every slice, so their masses accumulate there.  The
    result is normalized exactly when the profile covers the whole calendar.
    """
    base = full_time_base(pi.base.atoms, cal)
    n = len(cal)
    masses: dict[int, Fraction] = {}
    for tw, p in tagged_worlds(pi):
        if tw.time not in cal:
            raise TimePointOutsideCalendar(f"profile time {tw.time} outside the calendar")
        mask = flatten_tagged(tw, base).mask
        masses[mask] = masses.get(mask, ZERO) + Fraction(p, n)
    covers = set(pi.interval) == set(cal.points)
    return WorldDistribution(base, masses, require_normalized=covers)


class VerificationMode(Enum):
    LITERAL = "literal"
    CONDITIONAL = "conditional"


@dataclass
class SliceCheck:
    formula: str
    time: int
    mass: Fraction
    interval: ProbInterval
    inside: bool


@dataclass
class EvolutionReport:
    mode: VerificationMode
    checks: list[SliceCheck]
    literal_model: bool | None = None

    @property
    def all_inside(self) -> bool:
        return all(c.inside for c in self.checks)


def _annotated_slots(p_delta: PTProgram):
    for cl in p_delta.clauses:
        yield BasicFormula.single(cl.head), cl.head_annot
        for f, ann in cl.body:
            yield f, ann


def verify_evolution(
    pi: EvolutionProfile, p_delta: PTProgram, mode: VerificationMode
) -> EvolutionReport:
    """Measure the built program against the profile, per formula per slice.

    Discrepancies are report content, not failures; see the module docstring
    for the two readings.
    """
    cal = p_delta.calendar
    checks: list[SliceCheck] = []
    if mode is VerificationMode.LITERAL:
        ki = evolution_distribution(pi, cal)
        for formula, ann in _annotated_slots(p_delta):
            for t in solve_constraint(ann.constraint, cal):
                mass = formula_mass(ki, substitute_time(formula, t))
                iv = ann.interval_at(cal, t)
                checks.append(SliceCheck(str(formula), t, mass, iv, iv.contains(mass)))
        literal_model = ki_satisfies(unfold(p_delta), ki)
        return EvolutionReport(mode, checks, literal_model)
    for formula, ann in _annotated_slots(p_delta):
        catoms = tuple(CAtom(a.predicate, tuple(str(x) for x in a.args)) for a in formula.atoms)
        for t in solve_constraint(ann.constraint, cal):
            dist = pi.dist_at(t)
            mass = mass_of_atoms(dist, formula.connective, catoms)
            iv = ann.interval_at(cal, t)
            checks.append(SliceCheck(str(formula), t, mass, iv, iv.contains(mass)))
    return EvolutionReport(mode, checks)


def solve_profile(
    skeleton: PSkeleton,
    per_time: Mapping[str, Mapping[int, ProbInterval]],
    delta: Iterable[int],
    opts: SolveOptions = SolveOptions(),
) -> EvolutionProfile:
    """Produce one model per time slice by solving each slice program.

    This realizes the premise of the evolution construction: each slice model
    is solved with every annotated formula inside its own interval (the
    per-formula reading the construction presumes); if only weaker models
    exist, a plain consistency witness is used and the conditional report will
    show which formulas escape.  An inconsistent slice raises
    InconsistentProgram.
    """
    delta = tuple(sorted(set(delta)))
    catoms = [CAtom(a.predicate, a.args) for _, f in skeleton.formula_slots() for a in f.atoms]
    cbase = CompressedBase(catoms)
    dists = []
    for t in delta:
        clauses = []
        for i, cl in enumerate(skeleton.clauses):
            head = CAtom(cl.head.predicate, cl.head.args).at(t)
            head_iv = _slice_interval(per_time, f"c{i}.head", t)
            body = []
            for j, f in enumerate(cl.body):
                atoms = tuple(CAtom(a.predicate, a.args).at(t) for a in f.atoms)
                body.append(
                    (BasicFormula.of(f.connective, atoms), _slice_interval(per_time, f"c{i}.b{j}", t))
                )
            clauses.append(PClause(head, head_iv, tuple(body)))
        slice_base = HerbrandBase(ca.at(t) for ca in cbase.atoms)
        pp = PProgram(tuple(clauses), slice_base)
        witness = strong_witness(pp, opts)
        if witness is None:
            outcome = check_consistency(pp, opts)
            if outcome.verdict is not Verdict.CONSISTENT:
                raise InconsistentProgram(
                    f"time slice {t} is {outcome.verdict.value}; no per-time model exists"
                )
            witness = outcome.witness
        masses: dict[int, Fraction] = {}
        for world, p in witness.items():
            mask = 0
            for i, atom in enumerate(witness.base.atoms):
                if world.truth(i):
                    ca = CAtom(atom.predicate, tuple(str(x) for x in atom.args))
                    mask |= 1 << cbase.index_of(ca)
            masses[mask] = masses.get(mask, ZERO) + p
        dists.append((t, WorldDistribution(cbase, masses)))
    return EvolutionProfile(delta, tuple(dists))


def _slice_interval(per_time, slot_id: str, t: int) -> ProbInterval:
    slices = per_time.get(slot_id)
    if slices is None or t not in slices:
        raise MissingTimeSlice(f"no annotation for formula {slot_id} at time {t}")
    return slices[t]
