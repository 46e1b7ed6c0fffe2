from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_program, load_unfolded
from tplp.errors import AtomNotInBase
from tplp.grounder import HerbrandBase
from tplp.model import BasicFormula, Connective, TAtom
from tplp.worlds import (
    World,
    WorldDistribution,
    formula_mass,
    ki_satisfies,
    ki_satisfies_tp,
    world_satisfies,
)

A1 = TAtom("a", (), 1)
A2 = TAtom("a", (), 2)
B1 = TAtom("b", (), 1)
BASE_AB = HerbrandBase([A1, B1])
BASE_AA = HerbrandBase([A1, A2])


def single(atom):
    return BasicFormula.single(atom)


def conj(*atoms):
    return BasicFormula.of(Connective.AND, atoms)


def disj(*atoms):
    return BasicFormula.of(Connective.OR, atoms)


class TestWorldSatisfies:
    def test_single_atom(self):
        w = World.from_atoms(BASE_AB, [A1])
        assert world_satisfies(w, single(A1))

    def test_conjunction_needs_all(self):
        w = World.from_atoms(BASE_AB, [A1])
        assert not world_satisfies(w, conj(A1, B1))

    def test_disjunction_needs_one(self):
        w = World.from_atoms(BASE_AB, [A1])
        assert world_satisfies(w, disj(A1, B1))

    def test_atom_outside_base(self):
        w = World.empty(BASE_AB)
        with pytest.raises(AtomNotInBase):
            world_satisfies(w, single(TAtom("zz", (), 1)))

    def test_mask_bounds_checked(self):
        with pytest.raises(ValueError):
            World(1 << 5, BASE_AB)


class TestWorldDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WorldDistribution(BASE_AB, {0: F(-1, 2), 1: F(3, 2)})

    def test_rejects_subnormal_by_default(self):
        with pytest.raises(ValueError):
            WorldDistribution(BASE_AB, {0: F(1, 2)})

    def test_subnormal_allowed_when_asked(self):
        d = WorldDistribution(BASE_AB, {0: F(1, 2)}, require_normalized=False)
        assert d.total == F(1, 2) and not d.is_normalized
        assert d == WorldDistribution(BASE_AB, {0: 1}, denominator=2, require_normalized=False)

    def test_zero_masses_dropped(self):
        d = WorldDistribution(BASE_AB, {0: F(1), 1: F(0)})
        assert d.support_size() == 1

    def test_rejects_a_sum_just_below_one(self):
        with pytest.raises(ValueError, match="not 1"):
            WorldDistribution(BASE_AB, {0: F(1, 2), 3: F(1, 2) - F(1, 10**30)})

    def test_world_key_and_its_mask_sum_into_one_world(self):
        d = WorldDistribution(BASE_AB, {World(1, BASE_AB): F(1, 3), 1: F(1, 6), 2: F(1, 2)})
        assert d.support_size() == 2 and d.mass(1) == F(1, 2)
        assert d.mask_items() == [(1, F(1, 2)), (2, F(1, 2))]

    def test_int_and_fraction_masses_mix(self):
        d = WorldDistribution(BASE_AB, {0: 0, 1: 1, 2: F(0)})
        assert d.mask_items() == [(1, F(1))] and d.total == 1
        assert all(type(p) is F for _, p in d.mask_items())
        d = WorldDistribution(BASE_AB, {0: 2, 1: F(1, 2)}, require_normalized=False)
        assert d.total == F(5, 2)

    def test_negative_mass_offset_in_its_world_rejected(self):
        with pytest.raises(ValueError, match="negative mass -1/2"):
            WorldDistribution(BASE_AB, {World(0, BASE_AB): F(-1, 2), 0: F(3, 2)})

    @settings(deadline=None)
    @given(st.dictionaries(st.integers(0, 3), st.integers(0, 50)).filter(lambda m: any(m.values())))
    def test_integer_masses_over_a_denominator(self, numerators):
        denominator = sum(numerators.values())
        d = WorldDistribution(BASE_AB, numerators, denominator=denominator)
        fractions = {m: F(n, denominator) for m, n in numerators.items()}
        assert d == WorldDistribution(BASE_AB, fractions) and d.total == 1
        assert d.support_size() == sum(1 for n in numerators.values() if n)

    def test_integer_masses_drop_zeros(self):
        d = WorldDistribution(BASE_AB, {0: 0, 2: 3, 3: 0}, denominator=3)
        assert d.mask_items() == [(2, F(1))] and type(d.mass(2)) is F

    @pytest.mark.parametrize(
        "numerators, denominator, message",
        [
            ({0: 1, 1: 1}, 3, "world masses sum to 2/3, not 1"),
            ({0: -1, 1: 4}, 3, "negative mass -1/3"),
            ({0: 1, 4: 1}, 2, "world 0x4 outside the 2-atom base"),
            ({-1: 1}, 1, "world -0x1 outside the 2-atom base"),
            ({}, 1, "world masses sum to 0/1, not 1"),
            # a zero mass is dropped, but only once its world is in the base
            ({0: 1, 4: 0}, 1, "world 0x4 outside the 2-atom base"),
        ],
    )
    def test_integer_masses_checked(self, numerators, denominator, message):
        """Refused alike as integers over the denominator and as fractions."""
        with pytest.raises(ValueError, match=message):
            WorldDistribution(BASE_AB, numerators, denominator=denominator)
        fractions = {m: F(n, denominator) for m, n in numerators.items()}
        with pytest.raises(ValueError, match=message):
            WorldDistribution(BASE_AB, fractions)

    def test_point_and_uniform(self):
        assert WorldDistribution.point(BASE_AB).mass(0) == 1
        u = WorldDistribution.uniform(BASE_AB)
        assert u.mass(3) == F(1, 4)


class TestFormulaMass:
    def test_uniform_single_atom(self):
        u = WorldDistribution.uniform(BASE_AB)
        assert formula_mass(u, single(A1)) == F(1, 2)

    def test_point_mass_on_empty_world(self):
        d = WorldDistribution.point(BASE_AB)
        assert formula_mass(d, disj(A1, B1)) == 0

    def test_sparse_disjunction(self):
        d = WorldDistribution(
            BASE_AA,
            {0: F(11, 20), 1: F(3, 20), 2: F(3, 10)},
        )
        assert formula_mass(d, disj(A1, A2)) == F(9, 20)


def product_distribution(pa, pb):
    pa, pb = F(pa), F(pb)
    return WorldDistribution(
        BASE_AB,
        {
            0: (1 - pa) * (1 - pb),
            1: pa * (1 - pb),
            2: (1 - pa) * pb,
            3: pa * pb,
        },
    )


class TestProgramSatisfaction:
    def test_p0_satisfied_inside_intervals(self):
        pp = load_unfolded("p0.tpl")
        assert ki_satisfies(pp, product_distribution("3/5", "1/2"))

    def test_p0_head_out_body_in_fails(self):
        pp = load_unfolded("p0.tpl")
        assert not ki_satisfies(pp, product_distribution("3/5", "9/10"))

    def test_p0_fact_violation_fails(self):
        pp = load_unfolded("p0.tpl")
        assert not ki_satisfies(pp, product_distribution("1/5", "1/2"))

    def test_body_violation_rescues_clause(self):
        from tplp.grounder import PClause, PProgram
        from tplp.intervals import ProbInterval

        rule = PClause(
            B1,
            ProbInterval(F(2, 5), F(3, 5)),
            ((single(A1), ProbInterval(F(1, 5), F(3, 10))),),
        )
        pp = PProgram((rule,), BASE_AB)
        # body mass 1/2 is outside [0.2,0.3], so the head may go anywhere
        assert ki_satisfies(pp, product_distribution("1/2", "9/10"))
        # with the body inside its interval the head bound bites again
        assert not ki_satisfies(pp, product_distribution("1/4", "9/10"))

    def test_clause_form_checker_matches(self):
        p = load_program("p0.tpl")
        pp = load_unfolded("p0.tpl")
        for dist in (
            product_distribution("3/5", "1/2"),
            product_distribution("3/5", "9/10"),
            product_distribution("1/5", "1/2"),
        ):
            assert ki_satisfies_tp(p, dist) == ki_satisfies(pp, dist)
