"""Deterministic random instances for the fuzz suites.

The generator is splitmix64.  State transition for a 64-bit state s:

    s <- (s + 0x9E3779B97F4A7C15) mod 2**64
    z <- s;  z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2**64
    output z xor (z >> 31)

Trial streams are split by index: the stream for (seed, index) starts from
the scrambled state mix64(seed + GOLDEN * (index + 1)) where mix64 is the
output scrambler above and GOLDEN = 0x9E3779B97F4A7C15.  Identical
(seed, index) pairs therefore produce identical instances on every
platform, and distinct trials own disjoint-by-construction streams.
Bounded draws use the value modulo the range; the modulo bias is
irrelevant at the 2**64 state size and keeps the mapping portable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import UsageError
from .measures import AtomicMeasure

__all__ = [
    "SplitMix64",
    "GenParams",
    "stream",
    "random_atomic_measure",
    "random_root_instance",
    "random_triple",
    "pick_kappa",
]

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream starting from the given 64-bit state."""

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & _MASK
        return _mix64(self.state)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        if n <= 0:
            raise UsageError("below() needs n >= 1")
        return self.next_u64() % n


@dataclass(frozen=True)
class GenParams:
    """Reproducible generation parameters; identical values give identical
    instance streams on every platform."""

    seed: int
    max_atoms: int = 5
    bound: int = 64
    kappa_set: tuple[int, ...] = (2, 3, 4)

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK:
            raise UsageError("seed must fit in 64 bits")
        if not 1 <= self.max_atoms <= 8:
            raise UsageError("max_atoms must be in [1, 8]")
        if not 2 <= self.bound <= 1 << 16:
            raise UsageError("bound must be in [2, 65536]")
        if not self.kappa_set:
            raise UsageError("kappa_set must be nonempty")
        if any(k < 2 or k > 8 for k in self.kappa_set):
            raise UsageError("kappa_set entries must lie in [2, 8]")


def stream(params: GenParams, index: int) -> SplitMix64:
    return SplitMix64(_mix64(params.seed + GOLDEN * (index + 1)))


def _rational(rng: SplitMix64, bound: int) -> Fraction:
    return Fraction(1 + rng.below(bound), 1 + rng.below(bound))


def random_atomic_measure(params: GenParams, index: int) -> AtomicMeasure:
    """Deterministic measure for (params.seed, index): 1..max_atoms distinct
    positive rational atoms with numerators/denominators within bound."""
    return _draw_measure(params, stream(params, index))


def random_root_instance(params: GenParams, index: int) -> tuple[AtomicMeasure, int]:
    """(random_atomic_measure(params, index), kappa), with kappa drawn from
    the trial's stream after the measure, so that it does not reuse the
    value the atom count came from."""
    rng = stream(params, index)
    nu = _draw_measure(params, rng)
    return nu, pick_kappa(params, rng)


def _draw_measure(params: GenParams, rng: SplitMix64) -> AtomicMeasure:
    count = 1 + rng.below(params.max_atoms)
    points: set[Fraction] = set()
    while len(points) < count:
        points.add(_rational(rng, params.bound))
    pairs = [(p, _rational(rng, params.bound)) for p in sorted(points)]
    return AtomicMeasure.from_pairs(pairs)


def random_triple(params: GenParams, index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Deterministic 0 < theta1 < theta2 < theta3 rational triple."""
    rng = stream(params, index)
    values: set[Fraction] = set()
    while len(values) < 3:
        values.add(_rational(rng, params.bound))
    a, b, c = sorted(values)
    return a, b, c


def pick_kappa(params: GenParams, rng: SplitMix64) -> int:
    return params.kappa_set[rng.below(len(params.kappa_set))]
