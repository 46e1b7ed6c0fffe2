import random
from fractions import Fraction as F

import pytest

from generators import rand_distribution, rand_thread
from tplp.compression import (
    EvolutionProfile,
    VerificationMode,
    build_evolution_program,
    compress,
    compress_distribution,
    evolution_distribution,
    flatten,
    full_time_base,
    solve_profile,
    thread_prob,
    verify_evolution,
)
from tplp.errors import (
    InconsistentProgram,
    MissingTimeSlice,
    TimePointOutsideCalendar,
    UnknownFormulaSlot,
)
from tplp.grounder import HerbrandBase, unfold
from tplp.intervals import ProbInterval
from tplp.model import BasicFormula, CAtom, Calendar, TAtom
from tplp.parser import parse_program, parse_skeleton, render_program
from tplp.worlds import World, WorldDistribution, formula_mass, ki_satisfies

CAL2 = Calendar.from_range(1, 2)
CA, CB = CAtom("a"), CAtom("b")


def iv(lo, hi=None):
    lo = F(lo)
    return ProbInterval(lo, F(hi) if hi is not None else lo)


class TestCompressFlatten:
    def test_compress_reads_bits(self):
        base = full_time_base([CA], CAL2)
        w = World.from_atoms(base, [TAtom("a", (), 1)])
        th = compress(w, base, CAL2)
        assert th.times_of(CA) == {1}

    def test_empty_world_gives_empty_sets(self):
        base = full_time_base([CA, CB], CAL2)
        th = compress(World.empty(base), base, CAL2)
        assert th.times_of(CA) == frozenset() and th.times_of(CB) == frozenset()
        assert set(th.domain) == {CA, CB}

    def test_bit_by_bit_readoff(self):
        base = full_time_base([CA, CB], CAL2)
        w = World.from_atoms(
            base, [TAtom("a", (), 1), TAtom("a", (), 2), TAtom("b", (), 2)]
        )
        th = compress(w, base, CAL2)
        assert th.times_of(CA) == {1, 2}
        assert th.times_of(CB) == {2}

    def test_flatten_inverse_example(self):
        th = compress(
            World.from_atoms(full_time_base([CA], CAL2), [TAtom("a", (), 1)]),
            full_time_base([CA], CAL2),
            CAL2,
        )
        w = flatten(th, CAL2)
        assert [str(a) for a in w.atoms()] == ["a@1"]

    def test_round_trip_both_directions(self):
        rng = random.Random(501)
        for _ in range(200):
            catoms = [CAtom(p) for p in ("a", "b", "c")[: rng.randint(1, 3)]]
            cal = Calendar.from_range(1, rng.randint(1, 3))
            base = full_time_base(catoms, cal)
            w = World(rng.randrange(1 << len(base)), base)
            assert flatten(compress(w, base, cal), cal, base) == w
            th = rand_thread(rng, catoms, cal)
            assert compress(flatten(th, cal, base), base, cal) == th

    def test_flatten_rejects_time_outside_calendar(self):
        from tplp.compression import Thread

        th = Thread.from_mapping({CA: {9}})
        with pytest.raises(TimePointOutsideCalendar):
            flatten(th, CAL2)

    def test_compress_rejects_atom_outside_calendar(self):
        base = HerbrandBase([TAtom("a", (), 9)])
        with pytest.raises(TimePointOutsideCalendar, match="atom a@9 lies outside"):
            compress(World.empty(base), base, CAL2)


class TestThreadProb:
    def test_point_mass_hit(self):
        from tplp.compression import Thread

        th = Thread.from_mapping({CA: {1}})
        assert thread_prob({th: F(1)}, CA, 1) == 1

    def test_point_mass_miss(self):
        from tplp.compression import Thread

        th = Thread.from_mapping({CA: {1}})
        assert thread_prob({th: F(1)}, CA, 2) == 0

    def test_uniform_over_four_threads(self):
        from tplp.compression import Thread

        threads = [
            Thread.from_mapping({CA: s}) for s in (set(), {1}, {2}, {1, 2})
        ]
        kt = {th: F(1, 4) for th in threads}
        assert thread_prob(kt, CA, 1) == F(1, 2)

    def test_equals_flat_mass_on_random_distributions(self):
        rng = random.Random(502)
        for _ in range(100):
            catoms = [CAtom(p) for p in ("a", "b")[: rng.randint(1, 2)]]
            cal = Calendar.from_range(1, rng.randint(1, 3))
            base = full_time_base(catoms, cal)
            if len(base) > 8:
                continue
            ki = rand_distribution(rng, base)
            kt = compress_distribution(ki, cal)
            for ca in catoms:
                for t in cal.points:
                    flat = formula_mass(ki, BasicFormula.single(ca.at(t)))
                    assert thread_prob(kt, ca, t) == flat


def two_slice_profile():
    cbase = HerbrandBase([CA])
    return EvolutionProfile(
        (1, 2),
        (
            (1, WorldDistribution(cbase, {0: F(7, 10), 1: F(3, 10)})),
            (2, WorldDistribution(cbase, {0: F(2, 5), 1: F(3, 5)})),
        ),
    )


class TestEvolutionDistribution:
    def test_two_slice_arithmetic(self):
        ki = evolution_distribution(two_slice_profile(), CAL2)
        masses = {str(w): p for w, p in ki.items()}
        assert masses == {"{}": F(11, 20), "{a@1}": F(3, 20), "{a@2}": F(3, 10)}

    def test_point_masses_collapse_to_empty_world(self):
        cbase = HerbrandBase([CA])
        pi = EvolutionProfile(
            (1, 2),
            (
                (1, WorldDistribution.point(cbase)),
                (2, WorldDistribution.point(cbase)),
            ),
        )
        ki = evolution_distribution(pi, CAL2)
        assert ki.mass(0) == 1 and ki.support_size() == 1

    def test_single_point_calendar_is_verbatim(self):
        cal1 = Calendar.from_range(1, 1)
        cbase = HerbrandBase([CA])
        pi = EvolutionProfile(
            (1,), ((1, WorldDistribution(cbase, {0: F(1, 4), 1: F(3, 4)})),)
        )
        ki = evolution_distribution(pi, cal1)
        assert ki.mass(0) == F(1, 4) and ki.mass(1) == F(3, 4)

    def test_partial_interval_is_subnormal(self):
        cal3 = Calendar.from_range(1, 3)
        cbase = HerbrandBase([CA])
        pi = EvolutionProfile(
            (1, 2), two_slice_profile().dists
        )
        ki = evolution_distribution(pi, cal3)
        assert ki.total == F(2, 3)
        assert not ki.is_normalized

    def test_normalized_when_interval_covers_calendar(self):
        rng = random.Random(503)
        for _ in range(50):
            cal = Calendar.from_range(1, rng.randint(1, 3))
            cbase = HerbrandBase([CA, CB])
            dists = tuple((t, rand_distribution(rng, cbase)) for t in cal.points)
            pi = EvolutionProfile(cal.points, dists)
            assert evolution_distribution(pi, cal).is_normalized

    def test_profile_time_outside_calendar(self):
        cbase = HerbrandBase([CA])
        pi = EvolutionProfile((9,), ((9, WorldDistribution.point(cbase)),))
        with pytest.raises(TimePointOutsideCalendar, match="profile time 9 outside"):
            evolution_distribution(pi, CAL2)


class TestEvolutionProfile:
    """A profile checks its interval and distributions when it is made."""

    @pytest.mark.parametrize(
        "interval, dists, message",
        [
            ((2, 1), ((2, 0), (1, 0)), "strictly increasing"),
            ((1, 2), ((1, 0),), "cover exactly the interval"),
            ((1, 2), ((1, 0), (2, 1)), "share one compressed base"),
            ((1,), ((1, 2),), "distribution at time 1 is not normalized"),
        ],
        ids=["order", "cover", "base", "normalized"],
    )
    def test_rejected(self, interval, dists, message):
        a, ab = HerbrandBase([CA]), HerbrandBase([CA, CB])
        made = {
            0: WorldDistribution.point(a),
            1: WorldDistribution.point(ab),
            2: WorldDistribution(a, {0: F(1, 2)}, require_normalized=False),
        }
        with pytest.raises(ValueError, match=message):
            EvolutionProfile(interval, tuple((t, made[d]) for t, d in dists))

    def test_dist_at_a_missing_time(self):
        pi = two_slice_profile()
        assert pi.dist_at(2) is pi.dists[1][1]
        with pytest.raises(MissingTimeSlice, match="no distribution at time 3"):
            pi.dist_at(3)


class TestBuildEvolutionProgram:
    def test_two_slice_fact(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        per_time = {"c0.head": {1: iv("0.3"), 2: iv("0.6")}}
        p = build_evolution_program(sk, per_time, (1, 2))
        text = render_program(p)
        assert "a@Y : <Y: 1 ~ 2, [0.3,0.6], [0.3,0.6]>." in text

    def test_degenerate_single_slice(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        p = build_evolution_program(sk, {"c0.head": {2: iv("0.4", "0.5")}}, (2,))
        assert "a@Y : <Y = 2, [0.4], [0.5]>." in render_program(p)

    def test_rule_gets_shared_variable_and_own_lists(self):
        sk, _ = parse_skeleton("calendar 1..2.\nh :- a and b.\n")
        per_time = {
            "c0.head": {1: iv("0.1", "0.2"), 2: iv("0.3", "0.4")},
            "c0.b0": {1: iv("0.5", "0.6"), 2: iv("0.7", "0.8")},
        }
        p = build_evolution_program(sk, per_time, (1, 2))
        cl = p.clauses[0]
        assert str(cl.head) == "h@Y"
        f, ann = cl.body[0]
        assert str(f) == "a@Y and b@Y"
        assert [str(v) for v in ann.lower.values] == ["1/2", "7/10"]

    def test_missing_slice_raises(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        with pytest.raises(MissingTimeSlice):
            build_evolution_program(sk, {"c0.head": {1: iv("0.3")}}, (1, 2))

    def test_unknown_slot_rejected(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        per_time = {"c0.head": {1: iv("0.3")}, "c9.head": {1: iv("0.3")}}
        with pytest.raises(UnknownFormulaSlot, match="c9.head"):
            build_evolution_program(sk, per_time, (1,))
        with pytest.raises(UnknownFormulaSlot, match="c9.head"):
            solve_profile(sk, per_time, (1,))

    def test_empty_interval_rejected(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        with pytest.raises(ValueError, match="the evolution interval is empty"):
            build_evolution_program(sk, {}, ())

    def test_non_contiguous_interval_rejected(self):
        sk, _ = parse_skeleton("calendar 1..3.\na.\n")
        per_time = {"c0.head": {1: iv("0.3"), 3: iv("0.6")}}
        with pytest.raises(ValueError):
            build_evolution_program(sk, per_time, (1, 3))


class TestVerifyEvolution:
    def _program(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        per_time = {"c0.head": {1: iv("0.3"), 2: iv("0.6")}}
        return build_evolution_program(sk, per_time, (1, 2))

    def test_conditional_passes_every_slice(self):
        report = verify_evolution(two_slice_profile(), self._program(), VerificationMode.CONDITIONAL)
        assert report.all_inside
        assert [(c.time, c.mass) for c in report.checks] == [(1, F(3, 10)), (2, F(3, 5))]
        assert report.literal_model is None

    def test_literal_reports_dilution(self):
        report = verify_evolution(two_slice_profile(), self._program(), VerificationMode.LITERAL)
        assert report.literal_model is False
        first = report.checks[0]
        assert first.time == 1 and first.mass == F(3, 20) and not first.inside

    def test_single_point_calendar_readings_coincide(self):
        cal1 = Calendar.from_range(1, 1)
        cbase = HerbrandBase([CA])
        pi = EvolutionProfile(
            (1,), ((1, WorldDistribution(cbase, {0: F(3, 4), 1: F(1, 4)})),)
        )
        sk, _ = parse_skeleton("calendar 1..1.\na.\n")
        p = build_evolution_program(sk, {"c0.head": {1: iv("1/4")}}, (1,))
        literal = verify_evolution(pi, p, VerificationMode.LITERAL)
        conditional = verify_evolution(pi, p, VerificationMode.CONDITIONAL)
        assert literal.all_inside and conditional.all_inside
        assert literal.literal_model is True
        assert [(c.time, c.mass) for c in literal.checks] == [
            (c.time, c.mass) for c in conditional.checks
        ]


class TestSolveProfile:
    def test_point_intervals_force_the_profile(self):
        sk, _ = parse_skeleton("calendar 1..2.\na.\n")
        per_time = {"c0.head": {1: iv("0.3"), 2: iv("0.6")}}
        profile = solve_profile(sk, per_time, (1, 2))
        assert profile.dist_at(1).mass(1) == F(3, 10)
        assert profile.dist_at(2).mass(1) == F(3, 5)
        program = build_evolution_program(sk, per_time, (1, 2))
        assert verify_evolution(profile, program, VerificationMode.CONDITIONAL).all_inside

    def test_inconsistent_slice_raises(self):
        from tplp.errors import InconsistentProgram

        sk, _ = parse_skeleton("calendar 1..1.\na.\na.\n")
        per_time = {
            "c0.head": {1: iv("0.1", "0.2")},
            "c1.head": {1: iv("0.8", "0.9")},
        }
        with pytest.raises(InconsistentProgram):
            solve_profile(sk, per_time, (1,))

    def test_rule_slices_solved(self):
        sk, _ = parse_skeleton("calendar 1..2.\nh :- a.\n")
        per_time = {
            "c0.head": {1: iv("0.2", "0.5"), 2: iv("0.1", "0.9")},
            "c0.b0": {1: iv("0.4", "0.8"), 2: iv("0", "1")},
        }
        profile = solve_profile(sk, per_time, (1, 2))
        program = build_evolution_program(sk, per_time, (1, 2))
        report = verify_evolution(profile, program, VerificationMode.CONDITIONAL)
        assert report.all_inside


ATOMS = ("a", "b(k)", "b(m)", "c(k,m)", "c(m,m)")  # fixed arities: a/0, b/1, c/2


def rand_skeleton_text(rng: random.Random) -> str:
    def formula():
        atoms = rng.sample(ATOMS, rng.randint(1, 2))
        return f" {rng.choice(['and', 'or'])} ".join(atoms)

    lines = ["calendar 1..3."]
    for _ in range(rng.randint(1, 3)):
        body = [formula() for _ in range(rng.randint(0, 2))]
        head = rng.choice(ATOMS)
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def rand_interval(rng: random.Random) -> ProbInterval:
    lo = rng.randint(0, 4)
    return ProbInterval(F(lo, 4), F(rng.randint(lo, 4), 4))


class TestEvolutionProperties:
    """Random skeletons: the built program reparses, every solved slice is a
    model of its one-point evolution program, and a gap names its slot."""

    def test_random_skeletons(self):
        rng = random.Random(504)
        answered = 0
        for _ in range(60):
            sk, diags = parse_skeleton(rand_skeleton_text(rng))
            assert sk is not None and not diags
            first = rng.randint(1, 3)
            delta = tuple(range(first, rng.randint(first, 3) + 1))
            per_time = {
                slot: {t: rand_interval(rng) for t in delta} for slot, _ in sk.formula_slots()
            }
            text = render_program(build_evolution_program(sk, per_time, delta))
            result = parse_program(text)
            assert result.ok and not result.errors, text
            try:
                profile = solve_profile(sk, per_time, delta)
            except InconsistentProgram:
                profile = None
            if profile is not None:
                answered += 1
                for t in delta:
                    pp = unfold(build_evolution_program(sk, per_time, (t,)))
                    placed = {
                        World.from_atoms(pp.base, (ca.at(t) for ca in w.atoms())): p
                        for w, p in profile.dist_at(t).items()
                    }
                    assert ki_satisfies(pp, WorldDistribution(pp.base, placed))
            # slices are solved in time order, so only a gap in the first one
            # is reached whatever the earlier slices hold
            slot = rng.choice(sorted(per_time))
            t = rng.choice(delta) if profile is not None else delta[0]
            del per_time[slot][t]
            with pytest.raises(MissingTimeSlice) as exc:
                solve_profile(sk, per_time, delta)
            assert str(exc.value) == f"no annotation for formula {slot} at time {t}"
        assert answered >= 20, answered
