"""Compression of the temporal attribute and probability evolution.

A world over time-extended atoms compresses into a thread: a map from each
timeless atom (CAtom) to the set of time points at which it holds.  Flattening
is the inverse direction.  Both kinds of atom index worlds through the same
HerbrandBase.  On top of that sits the evolution construction: a family of
per-time world distributions over the timeless base is packed into a single
temporal program whose annotations carry one value per time slice, and the
family itself averages into one distribution over the time-extended base, each
world placed at its own time point.  The model of slice t is solved on the
evolution program over the one point t, unfolded like any other program.

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
    InconsistentProgram,
    MissingTimeSlice,
    TimePointOutsideCalendar,
    UnknownFormulaSlot,
)
from .grounder import HerbrandBase, unfold
from .intervals import ZERO, ProbInterval
from .model import (
    BasicFormula,
    CAtom,
    Calendar,
    PTProgram,
    TPAnnotation,
    TPClause,
    TVar,
    substitute_time,
)
from .parser import PSkeleton
from .psat import SolveOptions, Verdict, check_consistency, strong_witness
from .worlds import (
    World,
    WorldDistribution,
    formula_mass,
    ki_satisfies,
    mass_of_atoms,
)


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
        ca = atom.timeless()
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
    return World.from_atoms(base, (ca.at(t) for ca, ts in th.assignments for t in ts))


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
    def base(self) -> HerbrandBase:
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
    unknown = sorted(set(per_time) - {slot_id for slot_id, _ in skeleton.formula_slots()})
    if unknown:
        raise UnknownFormulaSlot(f"the profile annotates {', '.join(unknown)}, not in the skeleton")
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
        for t in delta:
            if t not in slices:
                raise MissingTimeSlice(f"no annotation for formula {slot_id} at time {t}")
        return TPAnnotation.of_instant((t, slices[t]) for t in delta)

    def promote(sf: BasicFormula) -> BasicFormula:
        return BasicFormula(sf.connective, tuple(a.at(TVar("Y")) for a in sf.atoms))

    clauses = []
    for i, cl in enumerate(skeleton.clauses):
        head_annot = annotation(f"c{i}.head")
        body = tuple(
            (promote(f), annotation(f"c{i}.b{j}")) for j, f in enumerate(cl.body)
        )
        clauses.append(TPClause(cl.head.at(TVar("Y")), head_annot, body))
    return PTProgram(cal, tuple(clauses))


def evolution_distribution(pi: EvolutionProfile, cal: Calendar) -> WorldDistribution:
    """Average the per-time worlds, each placed at its time point, into one
    distribution over the time-extended base (each slice weighted 1/|calendar|).

    The placing is not injective on all-false worlds: they land on the same
    empty world from every slice, so their masses accumulate there.  The
    result is normalized exactly when the profile covers the whole calendar.
    """
    base = full_time_base(pi.base.atoms, cal)
    n = len(cal)
    masses: dict[int, Fraction] = {}
    for t, dist in pi.dists:
        if t not in cal:
            raise TimePointOutsideCalendar(f"profile time {t} outside the calendar")
        for world, p in dist.items():
            mask = base.mask(ca.at(t) for ca in world.atoms())
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
            for t, iv in ann.instant(cal):
                mass = formula_mass(ki, substitute_time(formula, t))
                checks.append(SliceCheck(str(formula), t, mass, iv, iv.contains(mass)))
        literal_model = ki_satisfies(unfold(p_delta), ki)
        return EvolutionReport(mode, checks, literal_model)
    for formula, ann in _annotated_slots(p_delta):
        catoms = tuple(a.timeless() for a in formula.atoms)
        for t, iv in ann.instant(cal):
            mass = mass_of_atoms(pi.dist_at(t), formula.connective, catoms)
            checks.append(SliceCheck(str(formula), t, mass, iv, iv.contains(mass)))
    return EvolutionReport(mode, checks)


def solve_profile(
    skeleton: PSkeleton,
    per_time: Mapping[str, Mapping[int, ProbInterval]],
    delta: Iterable[int],
    opts: SolveOptions = SolveOptions(),
) -> EvolutionProfile:
    """Produce one model per time slice by solving each slice program: the
    evolution program over that one time point, unfolded.

    This realizes the premise of the evolution construction: each slice model
    is solved with every annotated formula inside its own interval (the
    per-formula reading the construction presumes); if only weaker models
    exist, a plain consistency witness is used and the conditional report will
    show which formulas escape.  An inconsistent slice raises
    InconsistentProgram.
    """
    delta = tuple(sorted(set(delta)))
    cbase = HerbrandBase(a for _, f in skeleton.formula_slots() for a in f.atoms)
    dists = []
    for t in delta:
        pp = unfold(build_evolution_program(skeleton, per_time, (t,)))
        witness = strong_witness(pp, opts)
        if witness is None:
            outcome = check_consistency(pp, opts)
            if outcome.verdict is not Verdict.CONSISTENT:
                raise InconsistentProgram(
                    f"time slice {t} is {outcome.verdict.value}; no per-time model exists"
                )
            witness = outcome.witness
        masses = {
            World.from_atoms(cbase, (a.timeless() for a in world.atoms())): p
            for world, p in witness.items()
        }
        dists.append((t, WorldDistribution(cbase, masses)))
    return EvolutionProfile(delta, tuple(dists))
