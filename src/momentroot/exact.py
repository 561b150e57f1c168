"""Exact scalar arithmetic: rationals, radicals of the form q * r**(1/k),
exact floor-of-log-ratio, and correctly rounded dyadic approximations.

Every certified verdict in this package reduces to integer arithmetic in
this module.  An approximation (bigfloat_root) is a correctly rounded
dyadic Fraction, used for reporting only; it never feeds back into a
certified result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "UsageError",
    "GuardExceeded",
    "parse_rational",
    "format_rational",
    "int_nth_root",
    "perfect_nth_root",
    "Radical",
    "floor_log_ratio",
    "bigfloat_root",
    "DEFAULT_PRECISION",
]

DEFAULT_PRECISION = 256


class UsageError(ValueError):
    """Invalid arguments at an API or CLI boundary (exit code 1)."""


class GuardExceeded(UsageError):
    """An enumeration guard would be exceeded."""


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the "p" / "p/q" text encoding into a Fraction.

    Base-10 integers only; no whitespace, decimals or exponents.  p may be
    negative: AtomicMeasure checks the sign of a measure's values.
    """
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise UsageError(f"not a rational literal: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:  # CPython's limit on int() of long digit strings
        raise UsageError(f"rational literal too long ({len(text)} characters)") from None
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p" when integral, else "p/q"."""
    return _ratio_text(q.numerator, q.denominator)


def _ratio_text(num: int, den: int) -> str:
    """format_rational of num/den, for coprime integers num and den > 0."""
    try:
        if den == 1:
            return str(num)
        return f"{num}/{den}"
    except ValueError:  # CPython's limit on str() of long integers
        bits = max(num.bit_length(), den.bit_length())
        raise UsageError(f"rational too long to print (a {bits}-bit integer)") from None


def int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1, computed exactly.

    Newton's step x -> ((k-1)*x + n // x**(k-1)) // k takes any x > 0 to
    at least the floor (AM-GM), and from above the floor it falls strictly
    until it stops there.  The iteration starts from a float estimate of
    the root, after one step; n is shifted into float range by a multiple
    of k, so the estimate is that of the shifted root, shifted back.
    """
    if n < 0 or k < 1:
        raise UsageError("int_nth_root needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    shift = -(-max(n.bit_length() - 1000, 0) // k)  # n >> (k * shift) < 2**1000
    x = max(int((n >> (k * shift)) ** (1 / k)), 1) << shift
    x = ((k - 1) * x + n // x ** (k - 1)) // k  # now x >= floor
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_nth_root(q: Fraction, k: int) -> Fraction | None:
    """The exact rational k-th root of q > 0, or None if it is irrational."""
    if q <= 0:
        raise UsageError("perfect_nth_root needs q > 0")
    return _perfect_root(q.numerator, q.denominator, k)


def _perfect_root(num: int, den: int, k: int) -> Fraction | None:
    """perfect_nth_root of num/den, for coprime num, den > 0."""
    rn = int_nth_root(num, k)
    if rn ** k != num:
        return None
    rd = int_nth_root(den, k)
    if rd ** k != den:
        return None
    return Fraction(rn, rd)


@dataclass(frozen=True)
class Radical:
    """The nonnegative real number coeff * radicand ** (1/index).

    coeff >= 0, radicand > 0, index >= 1.  A zero value is encoded as
    coeff == 0 (needed for interval endpoints sitting at the origin).
    A Radical is a value with no arithmetic: callers compare or combine
    radicals through their index-th powers, which are always rational.
    Equality and hash are on (index, power), so equal values of one index
    compare equal whatever their coeff and radicand.
    """

    coeff: Fraction
    radicand: Fraction
    index: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.index < 1:
            raise UsageError("radical index must be >= 1")
        if self.coeff < 0:
            raise UsageError("radical coeff must be >= 0")
        if self.radicand <= 0:
            raise UsageError("radical radicand must be > 0")

    @classmethod
    def from_rational(cls, q, index: int) -> "Radical":
        return cls(q, 1, index)

    @classmethod
    def root(cls, q, index: int) -> "Radical":
        """q ** (1/index) for rational q > 0."""
        return cls(Fraction(1), q, index)

    @classmethod
    def zero(cls, index: int) -> "Radical":
        return cls(Fraction(0), Fraction(1), index)

    @property
    def power(self) -> Fraction:
        """The index-th power of the denoted value; always rational."""
        return self.coeff ** self.index * self.radicand

    def is_zero(self) -> bool:
        return self.coeff == 0

    def to_rational(self) -> Fraction | None:
        """Exact rational value when one exists, else None."""
        if self.coeff == 0:
            return Fraction(0)
        if self.index == 1:
            return self.coeff * self.radicand
        r = perfect_nth_root(self.radicand, self.index)
        if r is None:
            return None
        return self.coeff * r

    def __eq__(self, other):
        if not isinstance(other, Radical):
            return NotImplemented
        return (self.index, self.power) == (other.index, other.power)

    def __hash__(self):
        return hash((self.index, self.power))

    def __repr__(self):
        if self.coeff == 0:
            return "Radical(0)"
        return (
            f"Radical({format_rational(self.coeff)}"
            f"*{format_rational(self.radicand)}^(1/{self.index}))"
        )


def _log2_frac(n: int, d: int) -> float:
    """Float estimate of log2(n/d) for n > d, accurate also when n/d is close to 1."""
    if abs(n.bit_length() - d.bit_length()) <= 8:
        # log1p avoids the catastrophic cancellation of log(n) - log(d)
        return math.log1p((n - d) / d) / math.log(2)
    return math.log2(n) - math.log2(d)


def floor_log_ratio(base: Fraction, target: Fraction) -> int:
    """Largest m >= 0 with base**m <= target, for base > 1, target >= 1.

    A floating estimate of log(target)/log(base) only seeds the search;
    the returned exponent is certified by exact integer powering, so
    boundary cases where the ratio is an exact power floor correctly.
    """
    base, target = Fraction(base), Fraction(target)
    p, q = base.numerator, base.denominator
    u, v = target.numerator, target.denominator
    if p <= q:
        raise UsageError("floor_log_ratio needs base > 1")
    if u < v:
        raise UsageError("floor_log_ratio needs target >= 1")
    return _floor_log(p, q, u, v)


def _floor_log(p: int, q: int, u: int, v: int) -> int:
    """floor_log_ratio(p/q, u/v) for integers p > q > 0 and u >= v > 0,
    which need not be in lowest terms."""
    if p * v > u * q:
        return 0
    g, h = math.gcd(p, q), math.gcd(u, v)  # powers of lowest terms are smaller
    p, q, u, v = p // g, q // g, u // h, v // h
    denom = _log2_frac(p, q)
    m = max(int(_log2_frac(u, v) / denom) if denom > 0 else 0, 0)
    pm, qm = p ** m, q ** m
    while pm * v > u * qm:  # base**m > target: step down
        m -= 1
        pm //= p
        qm //= q
    while True:  # largest m with base**m <= target
        pn, qn = pm * p, qm * q
        if pn * v > u * qn:
            return m
        m += 1
        pm, qm = pn, qn


def _decimal_str(num: int, den: int, digits: int) -> str:
    """num/den > 0 to the given number of significant digits, rounded half
    up; integer arithmetic throughout, and num/den need not be in lowest
    terms.

    One divmod loop finds the decimal exponent e10, 10**e10 <= num/den <
    10**(e10+1), and the digits together: from an estimate by bit lengths,
    n = floor(num/den * 10**(digits-1-e10)) has exactly digits digits
    exactly when e10 is right, and otherwise tells which way to step.
    """
    low = 10 ** (digits - 1)
    high = 10 * low
    e10 = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        e = digits - 1 - e10  # a/b = num/den * 10**e
        a, b = (num * 10 ** e, den) if e >= 0 else (num, den * 10 ** -e)
        n, r = divmod(a, b)
        if n < low:
            e10 -= 1
        elif n >= high:
            e10 += 1
        else:
            break
    if 2 * r >= b:
        n += 1
    s = str(n)
    if len(s) > digits:  # rounding carried into a new digit
        e10 += 1
        s = s[:digits]
    if -4 <= e10 < 0:
        return ("0." + "0" * (-e10 - 1) + s).rstrip("0")
    fixed = 0 <= e10 < digits  # else scientific, one digit before the point
    point = e10 + 1 if fixed else 1
    body = (s[:point] + "." + s[point:]).rstrip("0").rstrip(".")
    return body if fixed else f"{body}e{e10}"


def bigfloat_root(q: Fraction, k: int, precision: int) -> Fraction:
    """q**(1/k) for rational q > 0, rounded to nearest (ties to even) with a
    precision-bit mantissa, as an exact dyadic Fraction."""
    q = Fraction(q)
    if q <= 0:
        raise UsageError("bigfloat_root needs q > 0")
    if k < 1:
        raise UsageError("bigfloat_root needs k >= 1")
    if precision < 32:
        raise UsageError("precision must be at least 32 bits")
    return Fraction(*_root_dyadic(q.numerator, q.denominator, k, precision))


def _root_dyadic(num: int, den: int, k: int, precision: int) -> tuple[int, int]:
    """bigfloat_root(num/den, k, precision) as a numerator and a power-of-two
    denominator, not necessarily in lowest terms, for integers num, den > 0
    (not necessarily in lowest terms either), k >= 1 and precision >= 32.

    floor((num/den)**(1/k) * 2**t) is an integer k-th root, then the
    rounding decision compares num/den against the k-th power of the
    candidate midpoint, which is again exact.
    """
    # q > 2**(e-1) for e = num.bit_length() - den.bit_length(), so this t
    # gives q**(1/k) * 2**t > 2**(precision+1): m has >= precision+2 bits
    t = precision + 2 - (num.bit_length() - den.bit_length()) // k
    if t >= 0:
        m = int_nth_root((num << (k * t)) // den, k)
    else:
        m = int_nth_root(num // (den << (k * -t)), k)
    drop = m.bit_length() - precision
    m0 = m >> drop
    # round to nearest: compare q against ((2*m0+1) * 2**(drop-1-t)) ** k
    mid = (2 * m0 + 1) ** k
    shift = k * (drop - 1 - t)
    lhs, rhs = num, mid * den
    if shift >= 0:
        rhs <<= shift
    else:
        lhs <<= -shift
    if lhs > rhs or (lhs == rhs and m0 % 2 == 1):
        m0 += 1
    exponent = drop - t
    if exponent >= 0:
        return m0 << exponent, 1
    return m0, 1 << -exponent
