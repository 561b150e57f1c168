"""Finitely atomic measures on (0, oo): power pushforwards, product
supports and hole extraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .exact import (
    GuardExceeded,
    Radical,
    UsageError,
    format_rational,
    parse_rational,
)

__all__ = [
    "AtomicMeasure",
    "Hole",
    "kappa_power_measure",
    "product_support",
    "find_holes",
    "load_measure",
    "dump_measure",
]

MAX_MULTISETS = 10 ** 6
KAPPA_RANGE = range(2, 17)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many positive rational point masses, sorted by position."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise UsageError("a measure needs at least one atom")
        # signs on numerators, order by cross-multiplied ints (denominators
        # are positive); the first point is compared with 0/1, which it exceeds
        prev, prev_num, prev_den = None, 0, 1
        for point, weight in self.atoms:
            num, den = point.numerator, point.denominator
            if num <= 0:
                raise UsageError(f"atom position must be > 0, got {point}")
            if weight.numerator <= 0:
                raise UsageError(f"atom weight must be > 0, got {weight}")
            if num * prev_den <= prev_num * den:
                raise UsageError(f"atom positions must be distinct and increasing, got {point} after {prev}")
            prev, prev_num, prev_den = point, num, den

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure":
        """Sort (point, weight) pairs by point, keeping each Fraction rather
        than a copy so measures can share atoms; __post_init__ rejects a
        duplicate point.  Pairs already in strictly increasing order, as
        measure files usually list them, are kept as they are, checked on
        cross-multiplied ints rather than sorted by Fraction comparisons."""
        atoms = [(_fraction(p), _fraction(w)) for p, w in pairs]
        points = [(p.numerator, p.denominator) for p, _ in atoms]
        if not all(a * d < c * b for (a, b), (c, d) in zip(points, points[1:])):
            atoms.sort(key=itemgetter(0))
        return cls(tuple(atoms))

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    @property
    def min_point(self) -> Fraction:
        return self.atoms[0][0]

    @property
    def max_point(self) -> Fraction:
        return self.atoms[-1][0]


@dataclass(frozen=True)
class Hole:
    """A maximal open interval of zero mass inside [0, max support]."""

    lower: Fraction
    upper: Fraction
    leading: bool = False

    def __post_init__(self):
        if not (0 <= self.lower < self.upper):
            raise UsageError("hole endpoints must satisfy 0 <= lower < upper")


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _check_kappa(kappa: int, message: str | None = None):
    if type(kappa) is not int or kappa not in KAPPA_RANGE:  # 4.0 in KAPPA_RANGE is true
        raise UsageError(message or f"kappa must be in [2, 16], got {kappa}")


def _multiset_guard(n: int, kappa: int, limit: int):
    """Refuse to push n atoms whose size-kappa multisets exceed limit."""
    count = math.comb(n + kappa - 1, kappa)
    if count > limit:
        raise GuardExceeded(
            f"{count} multisets of size {kappa} over {n} elements exceed guard {limit}"
        )


def _numerators(values, den: int) -> list[int]:
    """The integers c with value = c/den, for a common denominator den."""
    return [v.numerator * (den // v.denominator) for v in values]


def _degree_maps(kappa: int, atoms=()) -> list[dict]:
    """Pushforward state maps[0..kappa] of the (numerator, weight) atoms;
    with none, maps[0] = {1: 1} and every other degree is empty."""
    maps = [{1: 1}] + [{} for _ in range(kappa)]
    for num, weight in atoms:
        _push_atom(maps, num, weight)
    return maps


def _push_atom(maps: list[dict], num: int, weight: int) -> None:
    """Fold one atom into the degree maps in place.

    Points are written num/D over one common denominator D, so a product of
    d points is an int key whose value is key/D**d.  maps[d] sends it to
    the sum, over the size-d multisets of the atoms pushed so far with that
    product, of multinomial(d; counts) * prod(weight**count).  Taking c
    copies of the new atom multiplies a degree-(d-c) multinomial by
    C(d, c); degrees are updated from kappa down, so each reads the lower
    maps before this atom enters them.  Every caller pushes int weights
    (weights cleared of their denominators), so every value is an int.
    """
    kappa = len(maps) - 1
    powers = [(1, 1)]
    for _ in range(kappa):
        step, w = powers[-1]
        powers.append((step * num, w * weight))
    for d in range(kappa, 0, -1):
        top = maps[d]
        for c in range(1, d + 1):
            step, w = powers[c]
            w *= math.comb(d, c)
            for key, value in maps[d - c].items():
                key *= step
                top[key] = top.get(key, 0) + value * w


def kappa_power_measure(nu: AtomicMeasure, kappa: int) -> AtomicMeasure:
    """Pushforward of the kappa-fold product of nu under multiplication.

    The n-th moment of the result mu is the kappa-th power of nu's n-th
    moment, for every n: the mass at a product point is the sum over size-kappa
    multisets of nu-atoms of multinomial(multiplicities) * product of
    weights.  Points and weights are cleared of denominators first, so the
    degree maps hold only ints.
    """
    _check_kappa(kappa)
    _multiset_guard(len(nu.atoms), kappa, MAX_MULTISETS)
    point_den = math.lcm(*(p.denominator for p in nu.support))
    weight_den = math.lcm(*(w.denominator for w in nu.weights))
    maps = _degree_maps(
        kappa, zip(_numerators(nu.support, point_den), _numerators(nu.weights, weight_den))
    )
    point_scale, weight_scale = point_den ** kappa, weight_den ** kappa
    return AtomicMeasure(
        tuple(
            (Fraction(key, point_scale), Fraction(value, weight_scale))
            for key, value in sorted(maps[kappa].items())
        )
    )


def product_support(points, kappa: int) -> tuple[Radical, ...]:
    """All products of exactly kappa factors drawn (with repetition) from
    the given points, deduplicated exactly and sorted ascending.

    Points may be rationals or same-index radicals; rationals are promoted
    to the common index.  The products' index-th powers, which are
    rational, are the support of the kappa-fold power of a unit-weight
    measure on the points' index-th powers; each product is returned as a
    rational at index 1 and as the index-th root of its power above it.
    """
    points = list(points)
    if not points:
        raise UsageError("product_support needs at least one point")
    indices = {p.index for p in points if isinstance(p, Radical)}
    if len(indices) > 1:
        raise UsageError("product_support points must share a radical index")
    index = indices.pop() if indices else 1
    powers = set()
    for p in points:
        r = p if isinstance(p, Radical) else Radical.from_rational(Fraction(p), index)
        powers.add(r.power)
    # the measure rejects a zero point and kappa_power_measure a bad kappa
    products = kappa_power_measure(AtomicMeasure.from_pairs((x, 1) for x in powers), kappa).support
    form = Radical.from_rational if index == 1 else Radical.root
    return tuple(form(x, index) for x in products)


def find_holes(m: AtomicMeasure) -> list[Hole]:
    """The leading gap [0, min supp) followed by the interior gaps.

    Gaps above the maximum support point are not reported.
    """
    holes = [Hole(Fraction(0), m.min_point, leading=True)]
    pts = m.support
    for a, b in zip(pts, pts[1:]):
        holes.append(Hole(a, b))
    return holes


def load_measure(source) -> AtomicMeasure:
    """Read the measure JSON format {"atoms": [{"point": "1/6", "weight": "1"}, ...]}.

    Accepts a path, file object or already-parsed dict.  Atoms may appear
    unsorted but must be distinct; points and weights are positive
    rational strings.
    """
    try:
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except RecursionError:
        raise UsageError("measure JSON is nested too deeply to read") from None
    try:
        raw = doc["atoms"]
    except (TypeError, KeyError):
        raise UsageError("measure JSON must have an 'atoms' array") from None
    if not isinstance(raw, list) or not raw:
        raise UsageError("measure JSON must have a nonempty 'atoms' array")
    pairs = []
    for entry in raw:
        try:
            point = parse_rational(entry["point"])
            weight = parse_rational(entry["weight"])
        except (TypeError, KeyError):
            raise UsageError("each atom needs 'point' and 'weight' strings") from None
        pairs.append((point, weight))
    return AtomicMeasure.from_pairs(pairs)


def _measure_text(m: AtomicMeasure, texts=None, pad: str = "") -> str:
    """m in the measure file format, as json.dumps(..., indent=2) writes it
    on a line indented by pad, given the text of each point in texts
    (format_rational's, built here when None).  No string in it needs
    escaping: rationals print as digits, "-" and "/"."""
    if texts is None:
        texts = [format_rational(p) for p, _ in m.atoms]
    n = "\n" + pad
    atoms = f",{n}    ".join([
        f'{{{n}      "point": "{text}",{n}      "weight": "{format_rational(w)}"{n}    }}'
        for text, (_, w) in zip(texts, m.atoms)
    ])
    return f'{{{n}  "atoms": [{n}    {atoms}{n}  ]{n}}}'


def dump_measure(m: AtomicMeasure) -> dict:
    """The measure file format, read back from the text _measure_text writes."""
    return json.loads(_measure_text(m))
