"""Grounding over the Herbrand universe and temporal unfolding.

Grounding substitutes object variables by constants and independent temporal
variables by calendar points, leaving each annotation's principal variable
symbolic.  Unfolding then expands every clause into one interval-annotated
clause per solution point of its head constraint.  Unfolding tolerates object
variables (the expansion is purely temporal), so schematic programs can be
unfolded for display; the possible-world machinery requires ground clauses and
a base.  Given a grounding mode, unfold does both in one pass over the ground
instances that ground_program enumerates, and builds no ground clause.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AtomNotInBase, GroundingTooLarge, UniverseEmpty
from .intervals import ProbInterval
from .model import (
    BasicFormula,
    CAtom,
    Calendar,
    ObjVar,
    PTProgram,
    TAtom,
    TPAnnotation,
    TPClause,
    TVar,
    companion_groundings,
    substitute_annotation,
)


class GroundingMode(Enum):
    FULL = "full"
    RELEVANT = "relevant"


class PClause(NamedTuple):
    """Interval-annotated clause produced by unfolding."""

    head: TAtom
    head_iv: ProbInterval
    body: tuple[tuple[BasicFormula, ProbInterval], ...] = ()

    def __str__(self):
        head = f"{self.head}:{self.head_iv}"
        if not self.body:
            return head
        return head + " <- " + " and ".join(f"{f}:{iv}" for f, iv in self.body)


# An atom's identity in a base: (predicate, args, time), time None for a
# timeless atom.  unfold interns atoms by it, and ground t-atoms sort by it as
# by key().  Looking atoms up by it never computes an atom's own hash.
_ident = attrgetter("predicate", "args", "time")


class HerbrandBase:
    """Ordered, duplicate-free list of ground atoms, time-extended (TAtom) or
    timeless (CAtom); index = world bit position."""

    def __init__(self, atoms: Iterable[TAtom | CAtom]):
        seen: dict[tuple, TAtom | CAtom] = {}
        for a in atoms:
            seen.setdefault(_ident(a), a)
        for a in seen.values():
            if not a.is_ground:
                raise ValueError(f"non-ground atom {a} cannot enter a Herbrand base")
        self.atoms: tuple[TAtom | CAtom, ...] = tuple(sorted(seen.values(), key=lambda a: a.key()))
        self._index = {_ident(a): i for i, a in enumerate(self.atoms)}

    @classmethod
    def _of(cls, atoms: tuple, index: dict[tuple, int]) -> HerbrandBase:
        """The base of distinct ground atoms in index order, index mapping
        each one's identity to its position."""
        base = cls.__new__(cls)
        base.atoms = atoms
        base._index = index
        return base

    def extended(self, atoms: Iterable[TAtom | CAtom]) -> HerbrandBase:
        """This base followed by those of the atoms it lacks, in order of
        first sight, so its own atoms keep their indices (self when it lacks
        none)."""
        index = self._index
        added: dict[tuple, TAtom | CAtom] = {}
        for a in atoms:
            key = _ident(a)
            if key not in index and key not in added:
                if not a.is_ground:
                    raise ValueError(f"non-ground atom {a} cannot enter a Herbrand base")
                added[key] = a
        if not added:
            return self
        n = len(self.atoms)
        return HerbrandBase._of(
            self.atoms + tuple(added.values()),
            {**index, **dict(zip(added, range(n, n + len(added))))},
        )

    def index_of(self, atom: TAtom | CAtom) -> int:
        i = self._index.get(_ident(atom))
        if i is None:
            raise AtomNotInBase(f"atom {atom} is not in the Herbrand base")
        return i

    def indices(self, atoms: Sequence[TAtom | CAtom]) -> list[int]:
        """index_of of each atom, looked up in one pass."""
        try:
            return list(map(self._index.__getitem__, map(_ident, atoms)))
        except KeyError:
            self.mask(atoms)  # raises AtomNotInBase, naming the first atom outside
            raise

    def mask(self, atoms: Iterable[TAtom | CAtom]) -> int:
        """The world bits of the atoms: bit index_of(a) set for each a."""
        bits = 0
        for a in atoms:
            bits |= 1 << self.index_of(a)
        return bits

    def __contains__(self, atom: TAtom | CAtom) -> bool:
        return _ident(atom) in self._index

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, HerbrandBase) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return f"HerbrandBase({len(self.atoms)} atoms)"


@dataclass(frozen=True)
class PProgram:
    """Unfolded program; base is present only when every clause is ground.

    Without a base, a program whose clauses are all ground gets theirs
    (herbrand_base).  A given base must hold every clause atom; it may hold
    more, such as atoms no clause constrains."""

    clauses: tuple[PClause, ...]
    base: HerbrandBase | None = None

    def __post_init__(self):
        if self.base is None:
            try:
                base = herbrand_base(self.clauses)
            except ValueError:  # a non-ground atom: the program has no base
                return
            object.__setattr__(self, "base", base)


def herbrand_base(source) -> HerbrandBase:
    """All atoms occurring in the clauses, canonically ordered."""
    clauses = source.clauses if isinstance(source, PProgram) else tuple(source)
    atoms: list[TAtom] = []
    for cl in clauses:
        atoms.append(cl.head)
        for f, _ in cl.body:
            atoms.extend(f.atoms)
    return HerbrandBase(atoms)


# --- grounding -------------------------------------------------------------------

# Most clause instances grounding may make: per clause, |constants| ** (object
# variables) times its companion groundings, summed over the program.  Counted
# before any instance or producible signature is built.  At the cap, `tplp
# ground` of one five-variable fact over ten constants takes about 1 s and a
# 65 MB peak RSS (CPython 3.11).
MAX_GROUND_INSTANCES = 100_000


def _ground_args(a: TAtom, obj_env: dict[str, str]) -> tuple:
    """a's arguments with obj_env's constants for its object variables."""
    if not obj_env:
        return a.args
    return tuple([obj_env.get(x.name, x) if isinstance(x, ObjVar) else x for x in a.args])


def _ground_atom(a: TAtom, obj_env: dict[str, str]) -> TAtom:
    return TAtom(a.predicate, _ground_args(a, obj_env), a.time, a.span)


def _substitute_clause(cl: TPClause, obj_env: dict[str, str], t_env: dict[str, int]) -> TPClause:
    head = _ground_atom(cl.head, obj_env)
    body = tuple(
        (
            BasicFormula(f.connective, tuple([_ground_atom(a, obj_env) for a in f.atoms]), f.span),
            substitute_annotation(ann, t_env),
        )
        for f, ann in cl.body
    )
    return TPClause(head, substitute_annotation(cl.head_annot, t_env), body, cl.span)


def _atom_signature(atom: TAtom, obj_env: dict[str, str]) -> tuple:
    return (atom.predicate, _ground_args(atom, obj_env))


def _producible_body(cl: TPClause, obj_env: dict[str, str], sigs: set[tuple]) -> bool:
    """Whether every body atom of cl under obj_env has a signature in sigs."""
    return all(_atom_signature(a, obj_env) in sigs for f, _ in cl.body for a in f.atoms)


def _object_substitutions(cl: TPClause, constants: tuple[str, ...]):
    """An iterator over each assignment of constants to cl's object variables
    in product order: one, empty, for none.  UniverseEmpty, raised here, when
    there are variables and no constants."""
    names = sorted(cl.object_vars)
    if names and not constants:
        raise UniverseEmpty(
            f"clause with object variables {', '.join(names)} but the program has no constants"
        )
    return (dict(zip(names, combo)) for combo in itertools.product(constants, repeat=len(names)))


def _producible_signatures(p: PTProgram, constants: tuple[str, ...]) -> set[tuple]:
    """Least fixpoint of derivable (predicate, object-args) signatures.

    Time positions are ignored.  Clauses without object variables seed their
    head signature unconditionally; facts seed every instance of theirs.
    """
    sigs: set[tuple] = set()
    for cl in p.clauses:
        if not cl.object_vars:
            sigs.add(_atom_signature(cl.head, {}))
        elif cl.is_fact:
            for env in _object_substitutions(cl, constants):
                sigs.add(_atom_signature(cl.head, env))
    rules = [cl for cl in p.clauses if cl.object_vars and cl.body]
    changed = True
    while changed:
        changed = False
        for cl in rules:
            for env in _object_substitutions(cl, constants):
                head_sig = _atom_signature(cl.head, env)
                if head_sig not in sigs and _producible_body(cl, env, sigs):
                    sigs.add(head_sig)
                    changed = True
    return sigs


def _instances(p: PTProgram, mode: GroundingMode):
    """Each ground instance of p's clauses as (clause, object substitution,
    companion grounding): in clause order, then object substitution, then
    companion grounding.  Every cap and UniverseEmpty is raised before the
    first is yielded."""
    constants = tuple(sorted(p.constants))
    groundings = [companion_groundings(cl.companion_tvars, p.calendar) for cl in p.clauses]
    n = len(p.calendar)
    count = sum(
        len(constants) ** len(cl.object_vars) * n ** len(cl.companion_tvars) for cl in p.clauses
    )
    if count > MAX_GROUND_INSTANCES:
        raise GroundingTooLarge(
            f"grounding would make {count} clause instances, above the cap of "
            f"{MAX_GROUND_INSTANCES}"
        )
    producible = _producible_signatures(p, constants) if mode is GroundingMode.RELEVANT else None
    substitutions = [_object_substitutions(cl, constants) for cl in p.clauses]
    for cl, t_groundings, obj_envs in zip(p.clauses, groundings, substitutions):
        checked = producible is not None and cl.object_vars
        t_envs = list(t_groundings)
        for obj_env in obj_envs:
            if not checked or _producible_body(cl, obj_env, producible):
                for t_env in t_envs:
                    yield cl, obj_env, t_env


def ground_program(p: PTProgram, mode: GroundingMode = GroundingMode.FULL) -> PTProgram:
    """Instantiate object variables over the constants and independent temporal
    variables over the calendar.

    RELEVANT keeps only instances of object-variable clauses whose body
    signatures are derivable from some head or fact; ground clauses pass
    through untouched under both modes.  Under either mode, a program of
    more than MAX_GROUND_INSTANCES instances at FULL raises
    GroundingTooLarge before any is made.
    """
    return p._regrounded(itertools.starmap(_substitute_clause, _instances(p, mode)))


def ground_temporal_variables(p: PTProgram) -> PTProgram:
    """Ground only the independent temporal variables, leaving object terms alone."""
    out = [
        _substitute_clause(cl, {}, t_env)
        for cl in p.clauses
        for t_env in companion_groundings(cl.companion_tvars, p.calendar)
    ]
    return p._regrounded(out)


# --- unfolding -------------------------------------------------------------------


def unfold(
    p: PTProgram, warn: Callable[[str], None] | None = None, grounding: GroundingMode | None = None
) -> PProgram:
    """Expand each clause into one interval-annotated clause per head solution point.

    The head interval at t is [lower(t), upper(t)]; the body collects every
    (conjunct, solution point) pair of its own annotation.  Clause order is
    source order, then time order.  A clause whose head constraint has an
    empty solution set contributes nothing (reported through ``warn``).

    Atoms are interned as they are emitted: each distinct (predicate, args,
    time) is one TAtom, which keeps the span of its first occurrence.  When
    every atom is ground, their identities sorted once are the program's
    base, in key() order.

    With a grounding mode, p is grounded as it is unfolded into the program of
    unfold(ground_program(p, grounding), warn), but no ground clause is made:
    atoms are interned from their source atom and substitution, and each
    companion grounding's windows serve all its object substitutions.
    """
    cal = p.calendar
    table: dict[tuple, TAtom] = {}

    def intern(a: TAtom, env: dict[str, str], t: int) -> TAtom:
        key = (a.predicate, _ground_args(a, env), t if isinstance(a.time, TVar) else a.time)
        atom = table.get(key)
        if atom is None:
            atom = table[key] = TAtom(*key, a.span)
        return atom

    clauses: list[PClause] = []
    source = None
    instances = _instances(p, grounding) if grounding else ((cl, {}, {}) for cl in p.clauses)
    for cl, env, t_env in instances:  # env: the object substitution
        if cl is not source:
            source, windows = cl, {}
        key = tuple(t_env.values())
        if key not in windows:  # a body's windows are read only under a head that has points
            heads = substitute_annotation(cl.head_annot, t_env).instant(cal)
            windows[key] = heads, heads and [
                (f, substitute_annotation(ann, t_env).instant(cal)) for f, ann in cl.body
            ]
        heads, bodies = windows[key]
        if not heads:
            if warn is not None:
                head = _ground_atom(cl.head, env)
                warn(f"clause head {head} has an empty solution set; no clauses emitted")
            continue
        body = tuple(
            (BasicFormula(f.connective, tuple(intern(a, env, tj) for a in f.atoms), f.span), iv)
            for f, window in bodies
            for tj, iv in window
        )
        for ti, iv in heads:
            clauses.append(PClause(intern(cl.head, env, ti), iv, body))
    idents = list(table)
    if any(not isinstance(x, str) for _, args, _ in idents for x in args):
        return PProgram(tuple(clauses))  # an object variable is left: no base
    idents.sort()
    atoms = tuple(map(table.get, idents))
    return PProgram(tuple(clauses), HerbrandBase._of(atoms, dict(zip(idents, range(len(atoms))))))


def pprogram_to_ptprogram(pp: PProgram, cal: Calendar) -> PTProgram:
    """Re-express an unfolded program in clause syntax with Y=t annotations."""

    clauses = []
    for cl in pp.clauses:
        head_time = cl.head.time
        if not isinstance(head_time, int):
            raise ValueError(f"unfolded head {cl.head} should be time-ground")
        body = tuple(
            (f, TPAnnotation.of_instant([(_formula_time(f, cal), iv)])) for f, iv in cl.body
        )
        clauses.append(TPClause(cl.head, TPAnnotation.of_instant([(head_time, cl.head_iv)]), body))
    return PTProgram(cal, tuple(clauses))


def _formula_time(f: BasicFormula, cal: Calendar) -> int:
    # A ground formula means the same thing under any singleton constraint, so
    # mixed atom times fall back to the first calendar point.
    times = {a.time for a in f.atoms if isinstance(a.time, int)}
    if len(times) == 1:
        return next(iter(times))
    return cal.first
