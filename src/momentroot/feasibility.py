"""Which pairs (M, N) admit a set of N positive reals with exactly M
pairwise products: bounds, the feasibility test, and a constructive,
self-verifying witness builder.

A strictly increasing tuple x_1 < ... < x_N realizes M = card{x_i * x_j}
iff 2N - 1 <= M <= N(N+1)/2.  Witnesses are powers of 2, x_i = 2**a_i,
built on the integer exponents by the induction behind that bound: the
geometric 0, k+2, ..., k+N (k = M - 2N) when M <= 3(N-1), otherwise the
exponents for (M - N, N - 1) with the largest e below them prepended such
that 2e and every e + a_i miss the sums a_i + a_j, which adds N new sums.
The span a_N - a_1 is capped at MAX_WITNESS_BITS (GuardExceeded beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import GuardExceeded, UsageError, format_rational
from .measures import AtomicMeasure, _numerators

from .decide import decide_root

__all__ = [
    "FeasibilityWitness",
    "InfeasiblePair",
    "n_minus",
    "n_plus",
    "feasible",
    "product_count",
    "witness",
    "class_membership",
]

MAX_WITNESS_BITS = 4096


class InfeasiblePair(UsageError):
    """No N-point set has exactly M pairwise products."""


@dataclass(frozen=True)
class FeasibilityWitness:
    """A strictly increasing rational tuple realizing M pairwise products.

    Construction counts the distinct sums of pairs of exponents (each entry
    is a power of 2) before the value is released, so a witness in hand is
    always genuine.
    """

    xs: tuple[Fraction, ...]
    M: int

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "N": len(self.xs),
            "xs": [format_rational(x) for x in self.xs],
        }


def n_minus(M: int) -> int:
    """Least N with M <= N(N+1)/2, i.e. ceil((sqrt(8M+1) - 1) / 2)."""
    if M < 1:
        raise UsageError("M must be >= 1")
    n = (math.isqrt(8 * M + 1) - 1) // 2
    while n * (n + 1) < 2 * M:  # isqrt rounds down, so n only needs to grow
        n += 1
    return n


def n_plus(M: int) -> int:
    """floor((M + 1) / 2)."""
    if M < 1:
        raise UsageError("M must be >= 1")
    return (M + 1) // 2


def feasible(M: int, N: int) -> bool:
    """True iff 2N - 1 <= M <= N(N+1)/2."""
    if M < 1 or N < 1:
        raise UsageError("M and N must be >= 1")
    return 2 * N - 1 <= M <= N * (N + 1) // 2


def product_count(xs) -> int:
    """Exact cardinality of {x_i * x_j : i <= j} for distinct positive xs."""
    xs = [Fraction(x) for x in xs]
    if any(x <= 0 for x in xs):
        raise UsageError("entries must be positive")
    if len(set(xs)) != len(xs):
        raise UsageError("entries must be distinct")
    cs = _numerators(xs, math.lcm(*(x.denominator for x in xs)))  # x_i = c_i / lcm
    return len({a * b for i, a in enumerate(cs) for b in cs[i:]})


def _span_guard(M: int, N: int, span: int) -> None:
    if span > MAX_WITNESS_BITS:
        raise GuardExceeded(f"witness for (M={M}, N={N}) needs an exponent span of at least "
                            f"{span} bits, above MAX_WITNESS_BITS = {MAX_WITNESS_BITS}")


def _build(M: int, N: int) -> list[int]:
    """Increasing exponents a_1 < ... < a_N with exactly M sums a_i + a_j."""
    _span_guard(M, N, N - 1)  # N distinct integers; this also bounds the walk
    m, n = M, N
    while n > 1 and m > 3 * (n - 1):
        m, n = m - n, n - 1
    _span_guard(M, N, m - n)
    exps = [0] + [m - 2 * n + j for j in range(2, n + 1)]
    sums = {a + b for i, a in enumerate(exps) for b in exps[i:]}
    while len(exps) < N:
        e = exps[0] - 1  # 2 * exps[0] - exps[-1] - 1 always qualifies
        while 2 * e in sums or any(e + a in sums for a in exps):
            e -= 1
        _span_guard(M, N, exps[-1] - e)
        sums.update([2 * e] + [e + a for a in exps])
        exps.insert(0, e)
    return exps


def witness(M: int, N: int) -> FeasibilityWitness:
    """Construct N increasing powers of 2 with exactly M pairwise products;
    raises InfeasiblePair when none exists, GuardExceeded past the span cap."""
    if not feasible(M, N):
        lo, hi = 2 * N - 1, N * (N + 1) // 2
        raise InfeasiblePair(
            f"(M={M}, N={N}) infeasible: need {lo} <= M <= {hi}"
        )
    exps = _build(M, N)
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise RuntimeError(f"witness construction not increasing for ({M}, {N})")
    if len({a + b for i, a in enumerate(exps) for b in exps[i:]}) != M:
        raise RuntimeError(f"witness self-check failed for ({M}, {N})")
    return FeasibilityWitness(tuple(Fraction(2) ** a for a in exps), M)


def class_membership(mu: AtomicMeasure) -> tuple[int, Optional[int]]:
    """(M, N) with M = card supp mu and N the square-root support size,
    or N = None when the square root is not a Stieltjes moment sequence."""
    M = len(mu.atoms)
    decision = decide_root(mu, 2)
    if not decision.is_yes:
        return M, None
    # feasible(M, N) holds: supp mu is the set of pairwise products of N points
    return M, decision.nu.support_size()
