"""Possible worlds, world distributions, and satisfaction checking.

A world is a bitset over a Herbrand base; a distribution maps worlds to exact
rational masses summing to one.  Satisfaction of an unfolded program is the
interval check per clause; the clause-syntax checker evaluates the same
semantics through each annotation's solution set, which gives the test suite
two independent routes to the same verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .grounder import HerbrandBase, PProgram
from .intervals import ONE, ZERO
from .model import BasicFormula, Connective, PTProgram, TAtom, substitute_time


def set_bits(mask: int):
    """The positions of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class World:
    """Truth assignment over a base: bit i set means atom i is true."""

    mask: int
    base: HerbrandBase = field(repr=False)

    def __post_init__(self):
        if self.mask < 0 or self.mask >> len(self.base):
            raise ValueError(f"mask {self.mask:#x} outside the {len(self.base)}-atom base")

    @classmethod
    def from_atoms(cls, base, atoms: Iterable) -> "World":
        return cls(base.mask(atoms), base)

    @classmethod
    def empty(cls, base) -> "World":
        return cls(0, base)

    def truth(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def atoms(self) -> tuple:
        atoms = self.base.atoms
        return tuple(atoms[i] for i in set_bits(self.mask))

    def __str__(self):
        return "{" + ", ".join(str(a) for a in self.atoms()) + "}"


def _mask_satisfies(mask: int, connective: Connective, bits: int) -> bool:
    if connective is Connective.OR:
        return mask & bits != 0
    return mask & bits == bits


def world_satisfies(w: World, f: BasicFormula) -> bool:
    """Classical truth of a ground formula in one world."""
    return _mask_satisfies(w.mask, f.connective, w.base.mask(f.atoms))


def _mask(world: World | int) -> int:
    return world.mask if isinstance(world, World) else int(world)


class WorldDistribution:
    """Sparse map from worlds to non-negative rational masses.

    Masses must sum to exactly one unless ``require_normalized`` is False
    (partial evolution profiles produce subnormalized densities).  Given a
    ``denominator``, ``masses`` maps world masks to integer numerators over
    it; otherwise rational masses (``Fraction`` or ``int``) become numerators
    over the lcm of their denominators, and both forms pass the same integer
    checks.  Every key, zero mass or not, must be a world of the base.
    """

    def __init__(
        self,
        base,
        masses: Mapping,
        *,
        require_normalized: bool = True,
        denominator: int | None = None,
    ):
        self.base = base
        n = len(base)
        if denominator is None:
            # integer numerators over the lcm of the denominators, each mass
            # sign-checked before the masses of one world are summed
            ratios = [(_mask(k), v.as_integer_ratio()) for k, v in masses.items()]
            denominator = math.lcm(*(d for _, (_, d) in ratios))
            masses = {}
            for mask, (num, den) in ratios:
                if num < 0:
                    raise ValueError(f"negative mass {Fraction(num, den)}")
                masses[mask] = masses.get(mask, 0) + num * (denominator // den)
        # checked in integers, then one Fraction per distinct mass
        total = sum(masses.values())
        if denominator < 1 or require_normalized and total != denominator:
            raise ValueError(f"world masses sum to {total}/{denominator}, not 1")
        least = min(masses.values(), default=0)
        if least < 0:
            raise ValueError(f"negative mass {least}/{denominator}")
        low, high = min(masses, default=0), max(masses, default=0)
        if low < 0 or high >> n:
            raise ValueError(f"world {low if low < 0 else high:#x} outside the {n}-atom base")
        shared = {v: Fraction(v, denominator) for v in set(masses.values()) if v}
        self._masses = {m: shared[v] for m, v in masses.items() if v}
        self.total = Fraction(total, denominator)

    @classmethod
    def point(cls, base, world: World | int = 0) -> "WorldDistribution":
        return cls(base, {_mask(world): ONE})

    @classmethod
    def uniform(cls, base) -> "WorldDistribution":
        count = 1 << len(base)
        return cls(base, {m: Fraction(1, count) for m in range(count)})

    @property
    def is_normalized(self) -> bool:
        return self.total == 1

    def mass(self, world: World | int) -> Fraction:
        return self._masses.get(_mask(world), ZERO)

    def items(self):
        for mask, mass in self.mask_items():
            yield World(mask, self.base), mass

    def mask_items(self) -> list[tuple[int, Fraction]]:
        """(mask, mass) per world of the support, by ascending mask."""
        return sorted(self._masses.items())

    def support_size(self) -> int:
        return len(self._masses)

    def __eq__(self, other):
        return (
            isinstance(other, WorldDistribution)
            and self.base == other.base
            and self._masses == other._masses
        )

    def __repr__(self):
        inner = ", ".join(f"{World(m, self.base)}: {v}" for m, v in sorted(self._masses.items()))
        return f"WorldDistribution({inner})"


def mass_of_atoms(ki: WorldDistribution, connective: Connective, atoms) -> Fraction:
    """Mass of the worlds where the atoms hold under the given connective."""
    bits = ki.base.mask(atoms)
    return sum(
        (v for m, v in ki._masses.items() if _mask_satisfies(m, connective, bits)), ZERO
    )


def formula_mass(ki: WorldDistribution, f: BasicFormula) -> Fraction:
    """Total mass of the worlds satisfying f."""
    return mass_of_atoms(ki, f.connective, f.atoms)


def atom_mass(ki: WorldDistribution, atom: TAtom) -> Fraction:
    return formula_mass(ki, BasicFormula.single(atom))


def ki_satisfies(pp: PProgram, ki: WorldDistribution) -> bool:
    """Interval satisfaction of an unfolded program: every clause holds with its
    head mass inside the head interval or some body conjunct mass outside its
    interval (exact comparisons)."""
    for cl in pp.clauses:
        head_ok = cl.head_iv.contains(atom_mass(ki, cl.head))
        if head_ok:
            continue
        body_violated = any(not iv.contains(formula_mass(ki, f)) for f, iv in cl.body)
        if not body_violated:
            return False
    return True


def ki_satisfies_tp(p: PTProgram, ki: WorldDistribution) -> bool:
    """Clause-syntax satisfaction: an annotated formula holds when the formula's
    mass lies inside [lower(t), upper(t)] at every solution point t of its
    constraint.  The program must be ground in object terms."""

    def annotated_holds(formula: BasicFormula, annot) -> bool:
        return all(
            iv.contains(formula_mass(ki, substitute_time(formula, t)))
            for t, iv in annot.instant(p.calendar)
        )

    for cl in p.clauses:
        head_ok = annotated_holds(BasicFormula.single(cl.head), cl.head_annot)
        if head_ok:
            continue
        body_ok = all(annotated_holds(f, ann) for f, ann in cl.body)
        if body_ok:
            return False
    return True
