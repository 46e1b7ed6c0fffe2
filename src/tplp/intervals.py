"""Probability intervals and the two orderings they carry.

Intervals [lo, hi] over [0, 1] are ordered by belief (componentwise) and by
knowledge/precision (lo up, hi down).  The knowledge join can produce
inconsistent intervals with lo > hi; such values are kept first-class here and
never clamped, since demonstrating that behaviour is part of this module's
job.  ``is_consistent`` is the advisory predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse 'n/d', an integer, or a decimal with at most 9 fractional digits."""
    text = text.strip()

    def integer(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"malformed rational {text!r}") from None

    if "/" in text:
        num, den = text.split("/", 1)
        if integer(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(integer(num), integer(den))
    if "." in text:
        whole, frac = text.split(".", 1)
        if not frac or not frac.isdigit():
            raise ValueError(f"malformed decimal literal {text!r}")
        if len(frac) > 9:
            raise ValueError(f"decimal literal {text!r} has more than 9 fractional digits")
        sign = -1 if whole.lstrip().startswith("-") else 1
        whole_i = integer(whole) if whole not in ("", "-") else 0
        return Fraction(whole_i) + sign * Fraction(integer(frac), 10 ** len(frac))
    return Fraction(integer(text))


def format_rational(q: Fraction) -> str:
    """Shortest exact text form: decimal when the denominator divides 10^9, else n/d."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    # count factors of 2 and 5
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    digits = max(twos, fives)
    if d != 1 or digits > 9:
        return f"{q.numerator}/{q.denominator}"
    scaled = abs(q.numerator) * 10 ** digits // q.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if q < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class ProbInterval:
    """A closed interval with both endpoints in [0, 1].

    lo <= hi is deliberately NOT required; see module docstring.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (ZERO <= lo <= ONE and ZERO <= hi <= ONE):
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


_BINARY = {
    "meet_k": meet_k,
    "join_k": join_k,
    "and_ig": and_ig,
    "or_ig": or_ig,
}
_PRED2 = {"leq_b": leq_b, "leq_k": leq_k}
_PRED1 = {"is_consistent": is_consistent}


def eval_interval_expr(text: str):
    """Evaluate an ad-hoc interval expression, e.g. ``join_k([0,0.3],[0.7,1])``.

    Nested calls are allowed.  Returns a ProbInterval or a bool.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise ValueError(f"expected {ch!r} at offset {pos} in {text!r}")
        pos += 1

    def parse_number() -> Fraction:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and (text[pos].isdigit() or text[pos] in "./-"):
            pos += 1
        if start == pos:
            raise ValueError(f"expected a number at offset {pos} in {text!r}")
        return parse_rational(text[start:pos])

    def parse_expr():
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "[":
            expect("[")
            lo = parse_number()
            expect(",")
            hi = parse_number()
            expect("]")
            return ProbInterval(lo, hi)
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ValueError(f"expected an interval or operator at offset {pos} in {text!r}")
        expect("(")
        args = [parse_expr()]
        skip_ws()
        while pos < n and text[pos] == ",":
            pos += 1
            args.append(parse_expr())
            skip_ws()
        expect(")")
        if name in _BINARY or name in _PRED2:
            if len(args) != 2:
                raise ValueError(f"{name} takes 2 arguments, got {len(args)}")
            fn = _BINARY.get(name) or _PRED2.get(name)
        elif name in _PRED1:
            if len(args) != 1:
                raise ValueError(f"{name} takes 1 argument, got {len(args)}")
            fn = _PRED1[name]
        else:
            raise ValueError(f"unknown operator {name!r}")
        for a in args:
            if not isinstance(a, ProbInterval):
                raise ValueError(f"{name} expects interval arguments")
        return fn(*args)

    result = parse_expr()
    skip_ws()
    if pos != n:
        raise ValueError(f"trailing input at offset {pos} in {text!r}")
    return result
