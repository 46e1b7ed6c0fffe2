import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tplp.intervals import (
    ProbInterval,
    and_ig,
    format_rational,
    is_consistent,
    join_k,
    leq_b,
    leq_k,
    meet_k,
    or_ig,
    parse_int,
    parse_rational,
)
from tplp.parser import eval_interval_expr


def iv(lo, hi):
    return ProbInterval(F(lo), F(hi))


class TestRationalText:
    def test_parse_decimal_exact(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("0.123456789") == F(123456789, 10**9)

    def test_parse_ratio_and_int(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("1") == F(1)

    def test_too_many_digits_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.1234567891")

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational(" 1/0 ")

    def test_overlong_part_names_the_literal(self):
        # int() refuses more than 4,300 digits; the message must name the literal
        for text in ["1" * 5000, "1/" + "3" * 5000, "0." + "1" * 5000]:
            with pytest.raises(ValueError, match="has too many digits|fractional digits") as exc:
                parse_rational(text)
            assert repr(text) in str(exc.value)

    def test_parse_int_reads_ascii_digits_only(self):
        assert parse_int("16") == 16
        assert parse_int(" 7 ") == 7
        # ARABIC-INDIC DIGITS ONE SIX, separators, signs: all int() accepts
        for text in ["\u0661\u0666", "1_0", "+1", "-1", "1.0", ""]:
            with pytest.raises(ValueError) as exc:
                parse_int(text)
            assert str(exc.value) == f"malformed integer {text!r}"
        with pytest.raises(ValueError, match="has too many digits"):
            parse_int("9" * 5000)

    def test_format_round_trips(self):
        for q in [F(0), F(1), F(1, 4), F(9, 10), F(1, 3), F(7, 13), F(1, 64)]:
            assert parse_rational(format_rational(q)) == q

    def test_format_prefers_decimals(self):
        assert format_rational(F(1, 4)) == "0.25"
        assert format_rational(F(1, 3)) == "1/3"

    @given(
        st.integers(-(10**40), 10**40),
        st.one_of(
            st.integers(1, 10**6),
            # 2^a 5^b, within 10^9's divisors and beyond them
            st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 20)),
            st.builds(lambda a, b, c: 2**a * 5**b * c, st.integers(0, 12), st.integers(0, 12),
                      st.sampled_from([3, 7, 11])),
        ),
    )
    @example(-7, 1)
    @example(-1, 2**9 * 5**9)
    @example(1, 2**10)
    @example(3, 10**9)
    def test_format_matches_its_docstring(self, n, d):
        """n/d when the denominator does not divide 10^9, else the exact decimal."""
        q = F(n, d)
        with localcontext() as ctx:
            ctx.prec = 80
            decimal = format(Decimal(q.numerator) / Decimal(q.denominator), "f")
        assert format_rational(q) == (
            f"{q.numerator}/{q.denominator}" if 10**9 % q.denominator else decimal
        )


class TestOrderings:
    def test_belief_bottom_top(self):
        assert leq_b(iv(0, 0), iv(1, 1))

    def test_belief_componentwise(self):
        assert not leq_b(iv("0.3", "0.5"), iv("0.2", "0.9"))

    def test_belief_reflexive(self):
        i = iv("0.3", "0.5")
        assert leq_b(i, i)

    def test_knowledge_bottom_is_full(self):
        assert leq_k(iv(0, 1), iv("0.3", "0.5"))

    def test_knowledge_precision_monotone(self):
        assert not leq_k(iv("0.3", "0.5"), iv(0, 1))

    def test_knowledge_reflexive(self):
        i = iv("0.2", "0.4")
        assert leq_k(i, i)


class TestKnowledgeMeetJoin:
    def test_meet_widens(self):
        assert meet_k(iv("0.3", "0.5"), iv("0.4", "0.9")) == iv("0.3", "0.9")

    def test_meet_bottom_absorbs(self):
        assert meet_k(iv(0, 1), iv("0.2", "0.7")) == iv(0, 1)

    def test_meet_idempotent(self):
        i = iv("0.25", "0.75")
        assert meet_k(i, i) == i

    def test_join_can_go_inconsistent(self):
        out = join_k(iv(0, "0.3"), iv("0.7", 1))
        assert out == iv("0.7", "0.3")
        assert not is_consistent(out)

    def test_join_overlapping(self):
        assert join_k(iv("0.2", "0.8"), iv("0.4", "0.9")) == iv("0.4", "0.8")

    def test_join_bottom_identity(self):
        i = iv("0.1", "0.6")
        assert join_k(i, iv(0, 1)) == i


class TestIgnoranceOps:
    def test_and_certain(self):
        assert and_ig(iv(1, 1), iv(1, 1)) == iv(1, 1)

    def test_and_total_ignorance_fixed_point(self):
        assert and_ig(iv(0, 1), iv(0, 1)) == iv(0, 1)

    def test_and_frechet_lower(self):
        assert and_ig(iv("0.3", "0.6"), iv("0.5", "0.8")) == iv(0, "0.6")

    def test_or_zero(self):
        assert or_ig(iv(0, 0), iv(0, 0)) == iv(0, 0)

    def test_or_caps_at_one(self):
        assert or_ig(iv("0.3", "0.6"), iv("0.5", "0.8")) == iv("0.5", 1)

    def test_or_total_ignorance(self):
        assert or_ig(iv(0, 1), iv(0, 1)) == iv(0, 1)


class TestConsistency:
    def test_flipped_is_inconsistent(self):
        assert not is_consistent(iv("0.7", "0.3"))

    def test_full_is_consistent(self):
        assert is_consistent(iv(0, 1))

    def test_point_is_consistent(self):
        assert is_consistent(iv("0.5", "0.5"))


def _rand_iv(rng):
    return ProbInterval(F(rng.randint(0, 24), 24), F(rng.randint(0, 24), 24))


class TestLatticeLaws:
    """meet_k/join_k form a lattice on all of [0,1]^2, inconsistent points included."""

    def test_laws_random(self):
        rng = random.Random(7)
        for _ in range(2000):
            a, b, c = _rand_iv(rng), _rand_iv(rng), _rand_iv(rng)
            assert meet_k(a, a) == a and join_k(a, a) == a
            assert meet_k(a, b) == meet_k(b, a)
            assert join_k(a, b) == join_k(b, a)
            assert meet_k(a, meet_k(b, c)) == meet_k(meet_k(a, b), c)
            assert join_k(a, join_k(b, c)) == join_k(join_k(a, b), c)
            assert meet_k(a, join_k(a, b)) == a
            assert join_k(a, meet_k(a, b)) == a

    def test_meet_join_agree_with_order(self):
        rng = random.Random(8)
        for _ in range(500):
            a, b = _rand_iv(rng), _rand_iv(rng)
            assert leq_k(meet_k(a, b), a) and leq_k(meet_k(a, b), b)
            assert leq_k(a, join_k(a, b)) and leq_k(b, join_k(a, b))

    def test_join_inconsistent_iff_strictly_disjoint(self):
        rng = random.Random(9)
        for _ in range(2000):
            a, b = _rand_iv(rng), _rand_iv(rng)
            if not (is_consistent(a) and is_consistent(b)):
                continue
            disjoint = a.hi < b.lo or b.hi < a.lo
            assert is_consistent(join_k(a, b)) == (not disjoint)


class TestIgnoranceIsNotLattice:
    def test_commutative(self):
        rng = random.Random(10)
        for _ in range(500):
            a, b = _rand_iv(rng), _rand_iv(rng)
            assert and_ig(a, b) == and_ig(b, a)
            assert or_ig(a, b) == or_ig(b, a)

    def test_absorption_counterexample_exists(self):
        rng = random.Random(11)
        found = None
        for _ in range(5000):
            a, b = _rand_iv(rng), _rand_iv(rng)
            if and_ig(a, or_ig(a, b)) != a or or_ig(a, and_ig(a, b)) != a:
                found = (a, b)
                break
        assert found is not None

    def test_outputs_stay_in_unit_square(self):
        rng = random.Random(12)
        for _ in range(500):
            a, b = _rand_iv(rng), _rand_iv(rng)
            for out in (and_ig(a, b), or_ig(a, b)):
                assert 0 <= out.lo <= 1 and 0 <= out.hi <= 1


class TestExprEvaluator:
    def test_interval_literal(self):
        assert eval_interval_expr("[0.2, 0.8]") == iv("0.2", "0.8")

    def test_nested_call(self):
        out = eval_interval_expr("join_k(meet_k([0.3,0.5],[0.4,0.9]),[0,1])")
        assert out == iv("0.3", "0.9")

    def test_predicate(self):
        assert eval_interval_expr("is_consistent(join_k([0,0.3],[0.7,1]))") is False

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            eval_interval_expr("frob([0,1],[0,1])")
        with pytest.raises(ValueError):
            eval_interval_expr("[0.2,0.8] trailing")


class TestProbInterval:
    def test_rejects_out_of_unit(self):
        with pytest.raises(ValueError):
            ProbInterval(F(-1, 10), F(1, 2))
        with pytest.raises(ValueError):
            ProbInterval(F(0), F(11, 10))

    def test_containment(self):
        assert iv("0.3", "0.4").contains(F(3, 10))
        assert iv("0.3", "0.4").contains_interval(iv("0.3", "0.35"))
        assert not iv("0.35", "0.4").contains_interval(iv("0.3", "0.4"))
