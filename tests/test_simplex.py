from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_solve_lp
from tplp.errors import LPNumericalFailure
from tplp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPMode, LPResult, solve_lp


class TestExactSimplex:
    def test_basic_maximization(self):
        # max x1 + x2  st  x1 + 2 x2 <= 4,  x1 <= 3
        res = solve_lp(2, [([1, 2], "<=", 4), ([1, 0], "<=", 3)]).optimum([1, 1], maximize=True)
        assert res.status == OPTIMAL
        assert res.value == F(7, 2)
        assert res.x == [F(3), F(1, 2)]

    def test_infeasible(self):
        res = solve_lp(1, [([1], ">=", 2), ([1], "<=", 1)])
        assert res.status == INFEASIBLE

    def test_equality_rows(self):
        rows = [([1, 1], "=", 1)]
        start = solve_lp(2, rows)
        lo = start.optimum([1, 0], maximize=False)
        hi = start.optimum([1, 0], maximize=True)
        assert (lo.value, hi.value) == (F(0), F(1))

    def test_unbounded(self):
        res = solve_lp(1, [([1], ">=", 1)]).optimum([1], maximize=True)
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
        res = solve_lp(4, rows).optimum([F(-3, 4), 150, F(-1, 50), 6], maximize=False)
        assert res.status == OPTIMAL
        assert res.value == F(-1, 20)

    def test_redundant_equalities_dropped(self):
        rows = [([1, 1], "=", 1), ([2, 2], "=", 2)]
        res = solve_lp(2, rows).optimum([1, 0], maximize=True)
        assert res.status == OPTIMAL and res.value == 1

    def test_negative_rhs_normalization(self):
        # -x <= -2  is  x >= 2
        res = solve_lp(1, [([-1], "<=", -2)]).optimum([1], maximize=False)
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
        res = solve_lp(2, rows, mode=LPMode.FLOAT).optimum([1, 1], maximize=True)
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


# --- random LPs ----------------------------------------------------------------------

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


# --- large denominators -------------------------------------------------------------


def _spread(draw, bound: int = 10**12):
    """A denominator: a small one, any up to bound, or bound itself."""
    return draw(st.one_of(st.integers(1, 12), st.integers(1, bound), st.just(bound)))


@st.composite
def rational_lps(draw):
    """small_lps with denominators up to 10**12: each row scaled by a factor in
    [1/2, 2], which keeps its feasible set and its sign pattern, and each
    objective coefficient moved off the integers by such a fraction, as
    maxent's limit_denominator(10**9) objectives are."""
    n, rows, objective = draw(small_lps())
    scaled = []
    for body, sense, rhs in rows:
        q = _spread(draw)
        f = F(draw(st.integers((q + 1) // 2, 2 * q)), q)
        scaled.append(([f * c for c in body], sense, f * rhs))
    moved = []
    for c in objective:
        q = _spread(draw)
        moved.append(c + F(draw(st.integers(-q, q)), q))
    return n, scaled, moved


@st.composite
def free_rational_lps(draw):
    """Every coefficient its own rational with a denominator up to 10**12."""
    n = draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=10**12))
    coeffs = st.lists(value, min_size=n, max_size=n)
    rows = draw(
        st.lists(st.tuples(coeffs, st.sampled_from(_SENSES), value), min_size=1, max_size=4)
    )
    return n, rows, draw(coeffs)


# --- warm starts: objectives from a feasibility solve's phase-one tableau ------------


class TestWarmStart:
    @settings(max_examples=300, deadline=None)
    @given(small_lps(), st.booleans())
    def test_optimum_matches_a_cold_solve(self, lp, maximize):
        n, rows, objective = lp
        start = solve_lp(n, rows)
        cold = reference_solve_lp(n, rows, objective=objective, maximize=maximize)
        _same_answer(start.optimum(objective, maximize), cold)

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
            cold = reference_solve_lp(2, rows, objective=[1, 0], maximize=maximize)
            _same_answer(start.optimum([1, 0], maximize), cold)
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
        _same_answer(result, reference_solve_lp(4, rows, objective=objective))
        assert result.value == F(-1, 20)

    def test_optimum_needs_a_feasibility_only_solve(self):
        solved = solve_lp(2, [([1, 1], "=", 1)]).optimum([1, 0])
        with pytest.raises(ValueError):
            solved.optimum([0, 1])

    def test_start_is_hidden_from_repr_and_equality(self):
        start = solve_lp(2, [([1, 1], "=", 1)])
        assert start == LPResult(OPTIMAL, start.x)
        assert repr(start) == repr(LPResult(OPTIMAL, start.x))


class TestFloatAgreesWithExact:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_lps(), rational_lps()), st.booleans())
    def test_same_verdict_and_optimum(self, lp, maximize):
        n, rows, objective = lp
        rows = _bounded(n, rows)
        exact = solve_lp(n, rows).optimum(objective, maximize)
        approx = solve_lp(n, rows, mode=LPMode.FLOAT).optimum(objective, maximize)
        assert approx.status == exact.status
        if exact.status == OPTIMAL:
            assert abs(approx.value - float(exact.value)) <= 1e-6


# --- fraction-free pivoting against the Fraction reference ---------------------------


def _tableau(start):
    """The rationals a start's tableau stands for, row by row, and its basis,
    in the full column numbering: solve_lp's start is widened back to one
    column per variable, as optimum() widens it."""
    if hasattr(start, "dens"):
        start = start.widened()
        return [[F(v, d) for v in row] for row, d in zip(start.rows, start.dens)], start.basis
    return [list(row) for row in start.rows], start.basis


def _same_answer(got, want):
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)


def assert_matches_reference(n, rows, objective):
    """solve_lp and reference_solve_lp agree on every answer: the optima of
    a fresh solve against the reference's one-shot solves, the feasibility
    solve's vertex, its widened basis and tableau, and min, max and min
    again from its start, which the optima leave as it was; bound gives
    each optimum's value."""
    for maximize in (False, True):
        _same_answer(
            solve_lp(n, rows).optimum(objective, maximize),
            reference_solve_lp(n, rows, objective=objective, maximize=maximize),
        )
    start, ref = solve_lp(n, rows), reference_solve_lp(n, rows)
    _same_answer(start, ref)
    if start.status == INFEASIBLE:
        assert start.bound(objective) is None
        return
    tableau = _tableau(start._start)
    assert tableau == _tableau(ref._start)
    x = list(start.x)
    for maximize in (False, True, False):
        want = ref.optimum(objective, maximize)
        _same_answer(start.optimum(objective, maximize), want)
        assert start.bound(objective, maximize) == want.value
    assert start.x == x and _tableau(start._start) == tableau


BEALE = (
    4,
    [
        ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
        ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
    ],
    [F(-3, 4), 150, F(-1, 50), 6],
)


class TestMatchesFractionReference:
    """EXACT mode pivots on integer numerators over per-row denominators; the
    tableau stands for the same rationals as the Fraction one, so every pivot,
    vertex and value is the same."""

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(small_lps(), rational_lps(), free_rational_lps()))
    def test_random_lps(self, lp):
        assert_matches_reference(*lp)

    @pytest.mark.parametrize(
        "lp",
        [
            pytest.param(BEALE, id="beale-degenerate"),
            pytest.param((1, [([1], ">=", 2), ([1], "<=", 1)], [1]), id="infeasible"),
            pytest.param((1, [([1], ">=", 1)], [-1]), id="unbounded"),
            pytest.param(
                (2, [([1, 1], "=", 1), ([2, 2], "=", 2), ([0, 0], "=", 0)], [1, 0]),
                id="redundant-rows-dropped",
            ),
            pytest.param(
                (
                    3,
                    [
                        ([F(-9, 10**12), F(3, 999_999_999_989), 1], "<=", F(-7, 10**12 - 11)),
                        ([1, 1, 1], "=", 1),
                        ([F(1, 3), 0, F(-2, 7)], ">=", F(-1, 10**12)),
                    ],
                    [F(123_456_789_011, 10**12), F(-1, 999_999_999_989), F(5, 3)],
                ),
                id="denominators-1e12-negative-rhs",
            ),
        ],
    )
    def test_named_lps(self, lp):
        assert_matches_reference(*lp)


# --- repeated columns: phase one over the distinct columns ---------------------------


@st.composite
def repeated_column_lps(draw):
    """(n, rows, objective) whose n <= 8 variables are each a copy of one of
    k distinct columns, with rational entries, mixed senses and right-hand
    sides, and costs drawn per variable, so they differ inside a copy group."""
    m = draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=12))
    column = st.lists(value, min_size=m, max_size=m).map(tuple)
    columns = draw(st.lists(column, min_size=1, max_size=4, unique=True))
    copy_of = draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=8))
    rows = [
        ([columns[c][i] for c in copy_of], draw(st.sampled_from(_SENSES)), draw(value))
        for i in range(m)
    ]
    return len(copy_of), rows, draw(st.lists(value, min_size=len(copy_of), max_size=len(copy_of)))


class TestRepeatedColumns:
    """solve_lp leaves out each column equal to an earlier one; Bland's rule
    would never enter it, so every pivot, vertex and optimum is the full
    tableau's, and bound gives each optimum's value."""

    @settings(max_examples=400, deadline=None)
    @given(repeated_column_lps())
    def test_random_lps(self, lp):
        assert_matches_reference(*lp)
        n, rows, _ = lp
        assert solve_lp(n, rows, mode=LPMode.FLOAT).status == solve_lp(n, rows).status

    @pytest.mark.parametrize(
        "lp",
        [
            pytest.param((3, [], [1, -1, 0]), id="no-rows"),
            pytest.param((3, [], [2, 0, 1]), id="no-rows-bounded"),
            pytest.param(
                (3, [([0, 0, 0], "=", 0), ([0, 0, 0], "<=", 1)], [1, -2, 3]), id="zero-columns"
            ),
            pytest.param(
                (4, [([1] * 4, "=", 1), ([F(1, 3)] * 4, ">=", F(1, 6))], [3, 1, 2, 1]),
                id="one-column",
            ),
        ],
    )
    def test_named_lps(self, lp):
        assert_matches_reference(*lp)

    def test_no_rows(self):
        start = solve_lp(3, [])
        assert (start.status, start.x) == (OPTIMAL, [0, 0, 0])
        assert start._start.num_vars == 1
        assert start.bound([1, 2, 0]) == 0
        assert start.bound([1, 2, 0], True) is None
        assert start.optimum([1, 2, 0], True).status == UNBOUNDED

    def test_bound_takes_the_better_cost_of_a_later_copy(self):
        # columns 0 and 2 are copies; the later one is cheaper to minimize
        # and dearer to maximize over
        rows = [([1, 1, 1], "=", 1), ([1, 0, 1], "<=", F(3, 4))]
        start = solve_lp(3, rows)
        assert (start._start.col_of, start._start.num_vars) == ([0, 1, 0], 2)
        objective = [2, 1, -1]
        low, high = start.optimum(objective), start.optimum(objective, True)
        assert (low.x, low.value) == ([0, F(1, 4), F(3, 4)], F(-1, 2))
        assert (high.x, high.value) == ([F(3, 4), F(1, 4), 0], F(7, 4))
        assert (start.bound(objective), start.bound(objective, True)) == (F(-1, 2), F(7, 4))
