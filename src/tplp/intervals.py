"""Probability intervals and the two orderings they carry.

Intervals [lo, hi] over [0, 1] are ordered by belief (componentwise) and by
knowledge/precision (lo up, hi down).  The knowledge join can produce
inconsistent intervals with lo > hi; such values are kept first-class here and
never clamped, since demonstrating that behaviour is part of this module's
job.  ``is_consistent`` is the advisory predicate.

``parse_rational`` reads NUM, the one numeric literal of programs, queries,
flags, CSV profiles and ``ialg``, and ``parse_int`` reads INT, the one integer
literal; ``OPERATORS`` names the operations that ``ialg`` expressions
(``parser.eval_interval_expr``) may call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = re.compile(r"[0-9]+")
_NUM = re.compile(r"([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def _digits(digits: str, literal: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        raise ValueError(f"number {literal!r} has too many digits") from None


def parse_int(text: str) -> int:
    """Read INT, the integers of program time points, flags and CSV times:
    ASCII digits only.  Surrounding whitespace is ignored; anything else
    raises ValueError naming the text."""
    text = text.strip()
    if _INT.fullmatch(text) is None:
        raise ValueError(f"malformed integer {text!r}")
    return _digits(text, text)


def parse_rational(text: str) -> Fraction:
    """Read NUM: ASCII digits, optionally followed by a decimal part of at most
    nine digits or by ``/`` and a non-zero denominator.  Surrounding
    whitespace is ignored; anything else raises ValueError naming the text."""
    text = text.strip()
    m = _NUM.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    whole, frac, den = m.groups()
    if den is not None:
        if _digits(den, text) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_digits(whole, text), _digits(den, text))
    if frac is None:
        return Fraction(_digits(whole, text))
    if len(frac) > 9:
        raise ValueError(f"decimal literal {text!r} has more than 9 fractional digits")
    return Fraction(_digits(whole + frac, text), 10 ** len(frac))


def format_rational(q: Fraction) -> str:
    """Shortest exact text form: decimal when the denominator divides 10^9, else n/d."""
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    if d == 1:
        return str(n)
    if 10**9 % d:
        return f"{n}/{d}"
    text = str(abs(n) * 10**9 // d).rjust(10, "0")
    sign = "-" if n < 0 else ""
    return f"{sign}{text[:-9]}.{text[-9:]}".rstrip("0")


@dataclass(frozen=True)
class ProbInterval:
    """A closed interval with both endpoints in [0, 1].

    lo <= hi is deliberately NOT required; see module docstring.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = self.lo if type(self.lo) is Fraction else Fraction(self.lo)
        hi = self.hi if type(self.hi) is Fraction else Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # each in [0, 1], compared on integers
        if not (0 <= lo.numerator <= lo.denominator and 0 <= hi.numerator <= hi.denominator):
            raise ValueError(f"interval endpoints must lie in [0,1]: [{lo}, {hi}]")

    @classmethod
    def point(cls, value) -> "ProbInterval":
        v = Fraction(value)
        return cls(v, v)

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "ProbInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


FULL = ProbInterval(ZERO, ONE)


def leq_b(i1: ProbInterval, i2: ProbInterval) -> bool:
    """Belief order: both endpoints rise."""
    return i1.lo <= i2.lo and i1.hi <= i2.hi


def leq_k(i1: ProbInterval, i2: ProbInterval) -> bool:
    """Knowledge (precision) order: lo rises, hi falls."""
    return i1.lo <= i2.lo and i1.hi >= i2.hi


def meet_k(i1: ProbInterval, i2: ProbInterval) -> ProbInterval:
    return ProbInterval(min(i1.lo, i2.lo), max(i1.hi, i2.hi))


def join_k(i1: ProbInterval, i2: ProbInterval) -> ProbInterval:
    """Knowledge join; may yield lo > hi when the inputs are disjoint."""
    return ProbInterval(max(i1.lo, i2.lo), min(i1.hi, i2.hi))


def and_ig(i1: ProbInterval, i2: ProbInterval) -> ProbInterval:
    """Ignorance conjunction: Frechet lower bound, min upper bound."""
    return ProbInterval(max(ZERO, i1.lo + i2.lo - ONE), min(i1.hi, i2.hi))


def or_ig(i1: ProbInterval, i2: ProbInterval) -> ProbInterval:
    """Ignorance disjunction: max lower bound, capped sum upper bound."""
    return ProbInterval(max(i1.lo, i2.lo), min(ONE, i1.hi + i2.hi))


def is_consistent(i: ProbInterval) -> bool:
    return i.lo <= i.hi


# Operators of ``ialg`` expressions (see ``parser.eval_interval_expr``): name
# -> (function, arity).  All take intervals; meet_k, join_k, and_ig and or_ig
# return one, leq_b, leq_k and is_consistent a bool.
OPERATORS = {
    "meet_k": (meet_k, 2),
    "join_k": (join_k, 2),
    "and_ig": (and_ig, 2),
    "or_ig": (or_ig, 2),
    "leq_b": (leq_b, 2),
    "leq_k": (leq_k, 2),
    "is_consistent": (is_consistent, 1),
}
