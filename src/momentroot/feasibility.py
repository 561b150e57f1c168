"""Which pairs (M, N) admit a set of N positive reals with exactly M
pairwise products: bounds, the feasibility test, and a constructive,
self-verifying witness builder.

A strictly increasing tuple x_1 < ... < x_N realizes M = card{x_i * x_j}
iff 2N - 1 <= M <= N(N+1)/2.  The witness construction follows the
induction behind that bound: a geometric tail when M <= 3(N-1), otherwise
a recursive witness for (M - N, N - 1) with a small element prepended.
The free choices (the base point, the geometric ratio, and the "small
enough" prepended element) are pinned to 1, 2 and x_2**2 / (2 * x_N) so
witnesses are exact rationals and fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import UsageError, format_rational
from .measures import AtomicMeasure

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


class InfeasiblePair(UsageError):
    """No N-point set has exactly M pairwise products."""


@dataclass(frozen=True)
class FeasibilityWitness:
    """A strictly increasing rational tuple realizing M pairwise products.

    Construction verifies the cardinality by exact enumeration before the
    value is released, so a witness in hand is always genuine.
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
    products = {a * b for i, a in enumerate(xs) for b in xs[i:]}
    return len(products)


def _build(M: int, N: int) -> list[Fraction]:
    if N == 1:
        return [Fraction(1)]
    below = N - 1
    if M <= 3 * below:
        k = M - 2 * N
        return [Fraction(1)] + [Fraction(2) ** (k + j) for j in range(2, N + 1)]
    tail = _build(M - N, below)
    first = tail[0] ** 2 / (2 * tail[-1])
    return [first] + tail


def witness(M: int, N: int) -> FeasibilityWitness:
    """Construct a strictly increasing rational tuple of length N with
    exactly M pairwise products; raises InfeasiblePair when none exists."""
    if not feasible(M, N):
        lo, hi = 2 * N - 1, N * (N + 1) // 2
        raise InfeasiblePair(
            f"(M={M}, N={N}) infeasible: need {lo} <= M <= {hi}"
        )
    xs = _build(M, N)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise RuntimeError(f"witness construction not increasing for ({M}, {N})")
    if product_count(xs) != M:
        raise RuntimeError(f"witness self-check failed for ({M}, {N})")
    return FeasibilityWitness(tuple(xs), M)


def class_membership(mu: AtomicMeasure) -> tuple[int, Optional[int]]:
    """(M, N) with M = card supp mu and N the square-root support size,
    or N = None when the square root is not a Stieltjes moment sequence."""
    M = len(mu.atoms)
    decision = decide_root(mu, 2)
    if not decision.is_yes:
        return M, None
    # feasible(M, N) holds: supp mu is the set of pairwise products of N points
    return M, decision.nu.support_size()
