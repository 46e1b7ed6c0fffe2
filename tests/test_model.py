import random
from fractions import Fraction as F

import pytest

from generators import rand_constraint
from oracles import constraint_holds_at, weight_at
from tplp.diagnostics import DiagnosticKind, Severity
from tplp.intervals import ProbInterval
from tplp.errors import CalendarTooLarge, NonNormalConstraint
from tplp.model import (
    MAX_CALENDAR_POINTS,
    BasicFormula,
    Calendar,
    CAnd,
    Cmp,
    CNot,
    Connective,
    COr,
    ObjVar,
    TAtom,
    TBin,
    TConst,
    TimeRange,
    TPAnnotation,
    TRef,
    TVar,
    WeightFunction,
    WeightKind,
    solve_constraint,
    substitute_time,
    validate_annotation,
)

CAL8 = Calendar.from_range(1, 8)
Y = TVar("Y")


def rng_range(lo, hi):
    return TimeRange(Y, TConst(lo), TConst(hi))


class TestCalendar:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            Calendar((3, 2, 1))
        with pytest.raises(ValueError):
            Calendar(())

    def test_range_form(self):
        assert Calendar.from_range(1, 8).points == tuple(range(1, 9))
        assert Calendar.from_range(1, 8).is_contiguous

    def test_range_capped_before_any_point_is_built(self):
        assert MAX_CALENDAR_POINTS == 100_000
        assert len(Calendar.from_range(0, MAX_CALENDAR_POINTS - 1)) == MAX_CALENDAR_POINTS
        with pytest.raises(CalendarTooLarge) as exc:
            Calendar.from_range(0, MAX_CALENDAR_POINTS)
        assert str(exc.value) == "calendar 0..100000 has 100001 points, above the cap of 100000"
        assert exc.value.exit_code == 3
        # a tuple of 10**10 points would exhaust memory long before it was built
        with pytest.raises(CalendarTooLarge, match="has 10000000000 points"):
            Calendar.from_range(1, 10**10)


class TestSolveConstraint:
    def test_range(self):
        assert solve_constraint(rng_range(3, 5), CAL8) == [3, 4, 5]

    def test_equality(self):
        assert solve_constraint(Cmp(Y, "=", TConst(1)), CAL8) == [1]

    def test_empty(self):
        assert solve_constraint(Cmp(Y, "<", TConst(1)), CAL8) == []

    def test_compound(self):
        c = CAnd(Cmp(Y, ">=", TConst(6)), CNot(Cmp(Y, "=", TConst(7))))
        assert solve_constraint(c, CAL8) == [6, 8]

    def test_arithmetic_terms(self):
        c = Cmp(Y, "=", TBin("+", TConst(2), TBin("*", TConst(2), TConst(3))))
        assert solve_constraint(c, CAL8) == [8]

    def test_non_normal_raises(self):
        c = Cmp(Y, "<=", TRef(TVar("Y1")))
        with pytest.raises(NonNormalConstraint):
            solve_constraint(c, CAL8)

    def test_matches_pointwise_oracle(self):
        rng = random.Random(101)
        for _ in range(300):
            cal = Calendar.from_range(1, rng.randint(1, 32))
            c = rand_constraint(rng, depth=4)
            expected = [t for t in cal.points if constraint_holds_at(c, t)]
            assert solve_constraint(c, cal) == expected

    def test_set_laws(self):
        rng = random.Random(102)
        for _ in range(200):
            cal = Calendar.from_range(1, rng.randint(1, 16))
            c1 = rand_constraint(rng, depth=2)
            c2 = rand_constraint(rng, depth=2)
            s1, s2 = set(solve_constraint(c1, cal)), set(solve_constraint(c2, cal))
            assert set(solve_constraint(CNot(c1), cal)) == set(cal.points) - s1
            assert set(solve_constraint(CAnd(c1, c2), cal)) == s1 & s2
            assert set(solve_constraint(COr(c1, c2), cal)) == s1 | s2


def weights(w: WeightFunction, c, cal: Calendar) -> dict[int, F]:
    """The weights w gives the points of c's instant."""
    return {t: iv.lo for t, iv in TPAnnotation(c, w, w).instant(cal)}


class TestWeightAt:
    """An annotation's instant against the per-point reference oracles.weight_at."""

    LIST = WeightFunction.list_of([F(1, 4), F(3, 20), F(1, 10)])

    def test_list_rank(self):
        assert weights(self.LIST, rng_range(3, 5), CAL8) == {3: F(1, 4), 4: F(3, 20), 5: F(1, 10)}
        assert weight_at(self.LIST, rng_range(3, 5), CAL8, 4) == F(3, 20)

    def test_sharp(self):
        assert weights(WeightFunction.sharp(), Cmp(Y, "=", TConst(1)), CAL8) == {1: 1}

    def test_outside_solution_is_zero(self):
        assert 7 not in weights(self.LIST, rng_range(3, 5), CAL8)
        assert weight_at(self.LIST, rng_range(3, 5), CAL8, 7) == 0

    def test_uniform_sums_to_one(self):
        rng = random.Random(103)
        for _ in range(100):
            cal = Calendar.from_range(1, rng.randint(1, 12))
            c = rand_constraint(rng, depth=2)
            ws = weights(WeightFunction.uniform(), c, cal)
            if ws:
                assert sum(ws.values()) == 1

    def test_zero_outside_for_all_kinds(self):
        c = rng_range(2, 4)
        for w in (self.LIST, WeightFunction.uniform(), WeightFunction.sharp()):
            assert 8 not in weights(w, c, CAL8)
            assert weight_at(w, c, CAL8, 8) == 0

    def test_instant_matches_per_point_reference(self):
        rng = random.Random(104)
        empty_kinds = set()

        def rand_weights(n: int) -> WeightFunction:
            kind = rng.choice(list(WeightKind))
            if n == 0:
                empty_kinds.add(kind)
            if kind is WeightKind.LIST:
                return WeightFunction.list_of(F(rng.randint(0, 20), 20) for _ in range(n))
            return WeightFunction(kind)

        for _ in range(200):
            cal = Calendar.from_range(rng.randint(-2, 3), rng.randint(3, 12))
            c = rand_constraint(rng, depth=rng.randint(0, 3))
            n = sum(constraint_holds_at(c, t) for t in cal.points)
            a = TPAnnotation(c, rand_weights(n), rand_weights(n))
            expected = [
                (t, ProbInterval(weight_at(a.lower, c, cal, t), weight_at(a.upper, c, cal, t)))
                for t in cal.points
                if constraint_holds_at(c, t)
            ]
            assert a.instant(cal) == expected
        assert empty_kinds == set(WeightKind)

    def test_uniform_over_empty_window(self):
        u = WeightFunction.uniform()
        assert TPAnnotation(Cmp(Y, ">", TConst(99)), u, u).instant(CAL8) == []

    @pytest.mark.parametrize("n", [2, 4])
    def test_list_length_mismatch_raises(self, n):
        a = TPAnnotation(rng_range(3, 5), WeightFunction.list_of([F(1, 2)] * n), self.LIST)
        with pytest.raises(ValueError):
            a.instant(CAL8)


class TestOfInstant:
    @pytest.mark.parametrize("cal", [CAL8, Calendar((1, 3, 4, 7, 9))])
    def test_round_trip_on_contiguous_windows(self, cal):
        rng = random.Random(105)
        for _ in range(50):
            i = rng.randrange(len(cal))
            j = rng.randrange(i, len(cal))
            window = []
            for t in cal.points[i : j + 1]:
                lo, hi = sorted(F(rng.randint(0, 20), 20) for _ in range(2))
                window.append((t, ProbInterval(lo, hi)))
            a = TPAnnotation.of_instant(window)
            assert a.instant(cal) == window
            assert validate_annotation(a, cal) == []

    def test_constraint_forms(self):
        iv = ProbInterval(F(1, 4), F(1, 2))
        assert str(TPAnnotation.of_instant([(3, iv)]).constraint) == "Y = 3"
        assert str(TPAnnotation.of_instant([(3, iv), (4, iv)]).constraint) == "Y: 3 ~ 4"


class TestValidateAnnotation:
    def test_shipping_rule_annotation_clean(self):
        a = TPAnnotation(
            rng_range(3, 5),
            WeightFunction.list_of([F(1, 4), F(3, 20), F(1, 10)]),
            WeightFunction.list_of([F(2, 5), F(6, 25), F(4, 25)]),
        )
        assert validate_annotation(a, CAL8) == []

    def test_sharp_fact_clean(self):
        a = TPAnnotation(Cmp(Y, "=", TConst(1)), WeightFunction.sharp(), WeightFunction.sharp())
        assert validate_annotation(a, CAL8) == []

    def test_length_mismatch(self):
        a = TPAnnotation(
            rng_range(3, 5),
            WeightFunction.list_of([F(1, 2), F(1, 2)]),
            WeightFunction.list_of([F(1), F(1), F(1)]),
        )
        kinds = [d.kind for d in validate_annotation(a, CAL8)]
        assert kinds == [DiagnosticKind.LENGTH_MISMATCH]

    def test_sharp_cardinality_and_mismatch_aggregate(self):
        a = TPAnnotation(
            rng_range(3, 5),
            WeightFunction.list_of([F(1, 2), F(1, 2)]),
            WeightFunction.sharp(),
        )
        kinds = {d.kind for d in validate_annotation(a, CAL8)}
        assert kinds == {DiagnosticKind.LENGTH_MISMATCH, DiagnosticKind.SHARP_CARDINALITY}

    def test_lower_exceeds_upper(self):
        a = TPAnnotation(
            Cmp(Y, "=", TConst(2)),
            WeightFunction.list_of([F(3, 4)]),
            WeightFunction.list_of([F(1, 2)]),
        )
        diags = validate_annotation(a, CAL8)
        assert [d.kind for d in diags] == [DiagnosticKind.LOWER_EXCEEDS_UPPER]
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_companion_groundings_report_each_diagnostic_once(self):
        # Y: Y1 ~ Y1 + 1 over 1..3 has two points for Y1 = 1 and for Y1 = 2,
        # each a lower and an upper LengthMismatch against one-value lists
        y1 = TRef(TVar("Y1"))
        a = TPAnnotation(
            TimeRange(Y, y1, TBin("+", y1, TConst(1))),
            WeightFunction.list_of([F(1, 2)]),
            WeightFunction.list_of([F(3, 5)]),
        )
        diags = validate_annotation(a, Calendar.from_range(1, 3))
        assert [(d.kind, d.message) for d in diags] == [
            (DiagnosticKind.LENGTH_MISMATCH, "lower weight list has 1 values but |sol| = 2"),
            (DiagnosticKind.LENGTH_MISMATCH, "upper weight list has 1 values but |sol| = 2"),
        ]

    def test_empty_solution_is_warning(self):
        a = TPAnnotation(
            Cmp(Y, ">", TConst(99)), WeightFunction.uniform(), WeightFunction.uniform()
        )
        diags = validate_annotation(a, CAL8)
        assert [d.kind for d in diags] == [DiagnosticKind.EMPTY_SOLUTION_SET]
        assert all(d.severity is Severity.WARNING for d in diags)


class TestSubstituteTime:
    def test_replaces_variable_position(self):
        f = BasicFormula.single(TAtom("arrived", (ObjVar("Item"), ObjVar("Place")), Y))
        out = substitute_time(f, 3)
        assert out.atoms[0].time == 3
        assert out.atoms[0].args == (ObjVar("Item"), ObjVar("Place"))

    def test_uniform_over_compound(self):
        f = BasicFormula.of(
            Connective.AND, (TAtom("a", (), Y), TAtom("b", (), Y))
        )
        out = substitute_time(f, 1)
        assert all(a.time == 1 for a in out.atoms)

    def test_ground_atom_untouched(self):
        f = BasicFormula.single(TAtom("a", (), 2))
        assert substitute_time(f, 5) == f

    def test_idempotent_once_ground(self):
        f = BasicFormula.of(Connective.OR, (TAtom("a", (), Y), TAtom("b", (), Y)))
        once = substitute_time(f, 4)
        assert substitute_time(once, 7) == once


class TestFormulaInvariants:
    def test_single_connective_enforced(self):
        with pytest.raises(ValueError):
            BasicFormula(Connective.AND, (TAtom("a", (), 1),))
        with pytest.raises(ValueError):
            BasicFormula(Connective.SINGLE, (TAtom("a", (), 1), TAtom("b", (), 1)))

    def test_mixed_temporal_vars_rejected(self):
        f = BasicFormula.of(
            Connective.AND, (TAtom("a", (), TVar("Y")), TAtom("b", (), TVar("Y1")))
        )
        with pytest.raises(ValueError):
            f.temporal_var
