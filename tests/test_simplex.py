from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplp.errors import LPNumericalFailure
from tplp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPMode, LPResult, solve_lp


class TestExactSimplex:
    def test_basic_maximization(self):
        # max x1 + x2  st  x1 + 2 x2 <= 4,  x1 <= 3
        res = solve_lp(
            2,
            [([1, 2], "<=", 4), ([1, 0], "<=", 3)],
            objective=[1, 1],
            maximize=True,
        )
        assert res.status == OPTIMAL
        assert res.value == F(7, 2)
        assert res.x == [F(3), F(1, 2)]

    def test_infeasible(self):
        res = solve_lp(1, [([1], ">=", 2), ([1], "<=", 1)])
        assert res.status == INFEASIBLE

    def test_equality_rows(self):
        rows = [([1, 1], "=", 1)]
        lo = solve_lp(2, rows, objective=[1, 0], maximize=False)
        hi = solve_lp(2, rows, objective=[1, 0], maximize=True)
        assert (lo.value, hi.value) == (F(0), F(1))

    def test_unbounded(self):
        res = solve_lp(1, [([1], ">=", 1)], objective=[1], maximize=True)
        assert res.status == UNBOUNDED

    def test_feasibility_only_returns_point(self):
        res = solve_lp(2, [([1, 1], "=", 1), ([1, 0], ">=", F(1, 4))])
        assert res.status == OPTIMAL
        x1, x2 = res.x
        assert x1 + x2 == 1 and x1 >= F(1, 4) and x2 >= 0

    def test_beale_cycling_guard(self):
        # classic degenerate instance; Bland's rule must terminate at -1/20
        rows = [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]
        res = solve_lp(4, rows, objective=[F(-3, 4), 150, F(-1, 50), 6], maximize=False)
        assert res.status == OPTIMAL
        assert res.value == F(-1, 20)

    def test_redundant_equalities_dropped(self):
        rows = [([1, 1], "=", 1), ([2, 2], "=", 2)]
        res = solve_lp(2, rows, objective=[1, 0], maximize=True)
        assert res.status == OPTIMAL and res.value == 1

    def test_negative_rhs_normalization(self):
        # -x <= -2  is  x >= 2
        res = solve_lp(1, [([-1], "<=", -2)], objective=[1], maximize=False)
        assert res.status == OPTIMAL and res.value == 2

    def test_exact_boundary_feasible(self):
        eps = F(1, 10**6)
        rows = [([1], ">=", F(1, 2)), ([1], "<=", F(1, 2))]
        assert solve_lp(1, rows).status == OPTIMAL
        rows_shifted = [([1], ">=", F(1, 2) + eps), ([1], "<=", F(1, 2))]
        assert solve_lp(1, rows_shifted).status == INFEASIBLE


class TestFloatSimplex:
    def test_matches_exact_on_small_lp(self):
        rows = [([1, 2], "<=", 4), ([1, 0], "<=", 3)]
        res = solve_lp(2, rows, objective=[1, 1], maximize=True, mode=LPMode.FLOAT)
        assert res.status == OPTIMAL
        assert abs(res.value - 3.5) < 1e-9

    def test_clear_infeasibility(self):
        res = solve_lp(1, [([1], ">=", 2), ([1], "<=", 1)], mode=LPMode.FLOAT)
        assert res.status == INFEASIBLE

    def test_ambiguous_band_raises(self):
        rows = [([1], ">=", 0.5 + 5e-8), ([1], "<=", 0.5)]
        with pytest.raises(LPNumericalFailure):
            solve_lp(1, rows, mode=LPMode.FLOAT)

    def test_below_tolerance_treated_feasible(self):
        rows = [([1], ">=", 0.5 + 5e-11), ([1], "<=", 0.5)]
        assert solve_lp(1, rows, mode=LPMode.FLOAT).status == OPTIMAL


class TestValidation:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            solve_lp(2, [([1], "<=", 1)])


# --- warm starts: objectives from a feasibility solve's phase-one tableau ------------

_SENSES = ("<=", ">=", "=")


@st.composite
def small_lps(draw):
    """(columns, rows, objective) with small integer data.  Zero right-hand
    sides make degenerate vertices common; an equality may come with a
    multiple of itself or a zero row, which phase one drops as redundant."""
    n = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(
        st.lists(
            st.tuples(coeffs, st.sampled_from(_SENSES), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        )
    )
    redundancy = draw(st.sampled_from(("none", "multiple", "zero")))
    if redundancy == "multiple":
        body, _, rhs = draw(st.sampled_from(rows))
        k = draw(st.integers(-2, 2).filter(bool))
        rows += [(body, "=", rhs), ([k * c for c in body], "=", k * rhs)]
    elif redundancy == "zero":
        rows.append(([0] * n, "=", 0))
    objective = draw(coeffs)
    return n, rows, objective


def _bounded(n, rows):
    """rows with every column capped at 5, so every objective has an optimum."""
    return rows + [([int(i == j) for i in range(n)], "<=", 5) for j in range(n)]


class TestWarmStart:
    @settings(max_examples=300, deadline=None)
    @given(small_lps(), st.booleans())
    def test_optimum_matches_a_cold_solve(self, lp, maximize):
        n, rows, objective = lp
        start = solve_lp(n, rows)
        cold = solve_lp(n, rows, objective=objective, maximize=maximize)
        assert start.optimum(objective, maximize) == cold

    @settings(max_examples=200, deadline=None)
    @given(small_lps())
    def test_start_is_not_changed_by_optimizing(self, lp):
        n, rows, objective = lp
        start = solve_lp(n, rows)
        x = list(start.x) if start.x is not None else None
        low = start.optimum(objective, maximize=False)
        high = start.optimum(objective, maximize=True)
        assert start.optimum(objective, maximize=False) == low
        assert start.optimum(objective, maximize=True) == high
        assert start.x == x

    def test_infeasible_start(self):
        start = solve_lp(1, [([1], ">=", 2), ([1], "<=", 1)])
        assert start.optimum([1], maximize=True) == LPResult(INFEASIBLE)

    def test_redundant_equalities_dropped(self):
        rows = [([1, 1], "=", 1), ([2, 2], "=", 2), ([0, 0], "=", 0)]
        start = solve_lp(2, rows)
        for maximize in (False, True):
            cold = solve_lp(2, rows, objective=[1, 0], maximize=maximize)
            assert start.optimum([1, 0], maximize) == cold
        assert start.optimum([1, 0], True).value == 1

    def test_degenerate_vertex(self):
        # Beale's cycling example: Bland's rule from the warm start too
        rows = [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]
        objective = [F(-3, 4), 150, F(-1, 50), 6]
        result = solve_lp(4, rows).optimum(objective)
        assert result == solve_lp(4, rows, objective=objective)
        assert result.value == F(-1, 20)

    def test_optimum_needs_a_feasibility_only_solve(self):
        solved = solve_lp(2, [([1, 1], "=", 1)], objective=[1, 0])
        with pytest.raises(ValueError):
            solved.optimum([0, 1])

    def test_start_is_hidden_from_repr_and_equality(self):
        start = solve_lp(2, [([1, 1], "=", 1)])
        assert start == LPResult(OPTIMAL, start.x)
        assert repr(start) == repr(LPResult(OPTIMAL, start.x))


class TestFloatAgreesWithExact:
    @settings(max_examples=300, deadline=None)
    @given(small_lps(), st.booleans())
    def test_same_verdict_and_optimum(self, lp, maximize):
        n, rows, objective = lp
        rows = _bounded(n, rows)
        exact = solve_lp(n, rows, objective=objective, maximize=maximize)
        approx = solve_lp(n, rows, objective=objective, maximize=maximize, mode=LPMode.FLOAT)
        assert approx.status == exact.status
        if exact.status == OPTIMAL:
            assert abs(approx.value - float(exact.value)) <= 1e-6
