"""Hole geometry: the (theta1, theta2, theta3) -> (alpha, beta, gamma,
alpha_dag, beta_dag) endpoint transform, the integer parameters iota_s and
iota_s_star, and instance checkers for the hole-transfer statements.

The hole statements concern one fixed pair: mu and a kappa-th root nu of
it.  RootPair holds that pair and checks it once, when it is built; the
checkers that relate nu to mu take a RootPair and never re-verify it.

Every support test is exact and is one bisection of an ascending
sequence: supp nu is held as the kappa-th powers of its atoms, and
"x in (a, b)" is decided by comparing kappa-th powers, so no tolerance
parameter exists in this module.  The kappa-th powers of the endpoints of
a hole (theta1, theta2) of supp mu are rationals in theta1, theta2 and
theta3, so the mu->nu checkers decide on those and build no radicals;
check_hole_forward and ordering_report compare kappa-th powers as well, so
radicals appear only as report data.

The mu->nu checkers decide on integers.  The hole walk of analyze and of
the fuzz theorems trial holds supp mu as numerators over one denominator
(_IntSupport), computes each interior hole's iota_s_star and iota_s once,
with at most one floor-log between them, in the iota table that the
triples block, the order scans and the walk share, and decides each hole's
facts once (_hole_facts), which check_hole_backward and
check_iota_hole_criteria both read.  A call from outside the walk checks
its hole and decides the same facts over the least common denominator of
its own values.  Both checkers take their claims tuple from _interned,
keyed by the facts they read as bools, which builds each tuple once per
process with its violations and the head of its report's JSON text:
_CLAIM_TUPLES is the one table of claims, and the walk's reports take a
few dozen tuples from it over any number of holes.
Checkers return TheoremReports; a report whose hypotheses all hold but
whose conclusion fails is a counterexample and is treated as a failure by
the fuzz harness.

The JSON forms of a TripleParams and of a list of TheoremReports have one
writer each, which writes text straight from the objects at the depth it
is printed at: _triple_text (at depth 0 for the params command, and for
each entry of analyze's triples block) and _reports_text (analyze's
theorems block), which splices an interned claims tuple's head and
writes any other report's head from its claims.  to_dict reads that text
back with json.loads.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, Optional

from .exact import (
    DEFAULT_PRECISION,
    GuardExceeded,
    Radical,
    UsageError,
    _decimal_str,
    _floor_log,
    _perfect_root,
    _ratio_text,
    _root_dyadic,
    bigfloat_root,
    format_rational,
)
from .measures import AtomicMeasure, _check_kappa, _numerators, kappa_power_measure
from .decide import NuRepresentation, decide_root, verify_representation

__all__ = [
    "RootPair",
    "TripleParams",
    "Claim",
    "TheoremReport",
    "triple_params",
    "ordering_report",
    "iota_relations",
    "iota_dagger_relations",
    "iota_star_witness",
    "kappa_dependence_scan",
    "check_hole_forward",
    "check_hole_backward",
    "check_iota_hole_criteria",
    "check_top_of_support",
    "check_lower_support",
    "check_root_order_membership",
]


_LITERAL = {True: "true", False: "false", None: "null"}


@dataclass(frozen=True)
class Claim:
    """One checked assertion: a hypothesis table plus a conclusion.

    holds is None when the conclusion was not evaluated (inapplicable
    instance); approximate marks conclusions checked numerically rather
    than exactly.
    """

    name: str
    hypotheses: tuple[tuple[str, bool], ...]
    conclusion: str
    holds: Optional[bool]
    approximate: bool = False

    @property
    def hypotheses_hold(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    @cached_property
    def violated(self) -> bool:
        return self.holds is False and self.hypotheses_hold


class _Claims(tuple):
    """The claims of a report of check_hole_backward or
    check_iota_hole_criteria, as _interned builds them: once per process
    for each key, with the report's theorem, its violated claims and its
    head, the JSON text _reports_text writes for the theorem, applicable,
    claims and violations keys of an applicable report.  Only a _Claims
    carries these, so claims built any other way have their violations
    found and their head written afresh."""

    theorem: str
    violations: tuple[Claim, ...]
    head: str


_CLAIM_TUPLES: dict[tuple, _Claims] = {}  # each _Claims _interned has built, by its key


def _interned(key: tuple, build) -> _Claims:
    """The claims build(*key[1:]) of a report whose theorem is key[0], built
    once per process and then shared: _CLAIM_TUPLES is the one table of
    claims.  Its callers pass a literal theorem and bools only, so the
    table stays finite."""
    claims = _CLAIM_TUPLES.get(key)
    if claims is None:
        claims = _CLAIM_TUPLES[key] = _Claims(build(*key[1:]))
        claims.theorem = theorem = key[0]
        claims.violations = violated = tuple(c for c in claims if c.violated)
        claims.head = _report_head(theorem, True, claims, violated)
    return claims


@dataclass
class TheoremReport:
    theorem: str
    claims: tuple[Claim, ...] = ()
    applicable: bool = True
    note: str = ""
    data: dict = field(default_factory=dict)

    @property
    def violations(self) -> tuple[Claim, ...]:
        claims = self.claims
        if type(claims) is _Claims:
            return claims.violations
        return tuple(c for c in claims if c.violated)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The JSON form, read back from the text _reports_text writes."""
        return json.loads(_reports_text([self]))[0]


def _lowered(v):
    """json.dumps's default for report data: rationals become strings,
    radicals and TripleParams dicts."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, Radical):
        return json.loads(_radical_json(v))
    if isinstance(v, TripleParams):
        return v.to_dict()
    raise TypeError(f"{type(v).__name__} is not a report data value")


APPROX_BITS = 64  # precision of the approx of an irrational radical in JSON


class JsonText(str):
    """JSON text as json.dumps(document, indent=2) writes a value of a
    top-level key: every line after the first indented by two spaces.  The
    CLI splices it into the document as it stands."""


def _radical_text(coeff: str, radicand: str, index: int, rational: str | None, power: tuple[int, int] = (0, 1),
                  pad: str = "  ") -> str:
    """The JSON form of the radical coeff * radicand**(1/index), given the
    texts of its rationals, as json.dumps(..., indent=2) writes it on a
    line indented by pad (by default a field of a triple at depth 0).
    rational is the text of its value, None if irrational; only then is
    power read, for the approx: its index-th power as a numerator and a
    denominator, positive ints not necessarily in lowest terms.

    No string in it needs escaping: rationals print as digits, "-" and "/".
    """
    n = "\n" + pad
    head = f'{{{n}  "coeff": "{coeff}",{n}  "radicand": "{radicand}",{n}  "index": {index},'
    if rational is not None:
        return f'{head}{n}  "rational": "{rational}"{n}}}'
    num, den = _root_dyadic(*power, index, APPROX_BITS)
    decimal = _decimal_str(num, den, APPROX_BITS * 301 // 1000)  # 19 digits, as many as 64 bits carry
    return (
        f'{head}{n}  "rational": null,{n}  "approx": {{{n}    "decimal": "{decimal}",'
        f'{n}    "precision_bits": {APPROX_BITS}{n}  }}{n}}}'
    )


def _radical_json(r: Radical) -> str:
    """_radical_text of the Radical r, as a field of a triple at depth 0."""
    coeff, radicand, exact = format_rational(r.coeff), format_rational(r.radicand), r.to_rational()
    if exact is not None:
        return _radical_text(coeff, radicand, r.index, format_rational(exact))
    power = r.power
    return _radical_text(coeff, radicand, r.index, None, (power.numerator, power.denominator))


def _triple_text(theta1: str, theta2: str, theta3: str, kappa: int, alpha: str, beta: str, gamma: str,
                 alpha_dag: str, beta_dag: str, iota_s, iota_s_star, pad: str = "") -> str:
    """The JSON form of a TripleParams on a line indented by pad, one key
    per field in field order, given the texts of its rationals and of its
    radicals (written for that depth); an iota is an int or "null"."""
    n = "\n" + pad
    return (
        f'{{{n}  "theta1": "{theta1}",{n}  "theta2": "{theta2}",{n}  "theta3": "{theta3}",'
        f'{n}  "kappa": {kappa},{n}  "alpha": {alpha},{n}  "beta": {beta},{n}  "gamma": {gamma},'
        f'{n}  "alpha_dag": {alpha_dag},{n}  "beta_dag": {beta_dag},'
        f'{n}  "iota_s": {iota_s},{n}  "iota_s_star": {iota_s_star}{n}}}'
    )


@dataclass(frozen=True)
class TripleParams:
    """Derived hole-endpoint parameters for a triple theta1 < theta2 <= theta3.

    alpha = (theta1/theta3) * theta3**(1/kappa), beta = theta2**(1/kappa),
    gamma = theta3**(1/kappa), alpha_dag = (theta2/theta3) * theta3**(1/kappa),
    beta_dag = theta1**(1/kappa).  iota_s and iota_s_star are left undefined
    (None) exactly when their defining log-ratios are undefined.
    """

    theta1: Fraction
    theta2: Fraction
    theta3: Fraction
    kappa: int
    alpha: Radical
    beta: Radical
    gamma: Radical
    alpha_dag: Radical
    beta_dag: Radical
    iota_s: Optional[int]
    iota_s_star: Optional[int]

    def to_dict(self) -> dict:
        """The JSON form, read back from the text _params_text writes."""
        return json.loads(_params_text(self))


def _params_text(p: TripleParams) -> str:
    """The JSON text of p at depth 0: one key per field, in field order."""
    rationals = [format_rational(x) for x in (p.theta1, p.theta2, p.theta3)]
    radicals = [_radical_json(r) for r in (p.alpha, p.beta, p.gamma, p.alpha_dag, p.beta_dag)]
    iotas = ["null" if i is None else i for i in (p.iota_s, p.iota_s_star)]
    return _triple_text(*rationals, p.kappa, *radicals, *iotas)


def _triple_args(theta1, theta2, theta3, strict: bool = False) -> tuple[Fraction, Fraction, Fraction]:
    """theta1, theta2, theta3 as Fractions, after checking 0 <= theta1 <
    theta2 <= theta3, or 0 < theta1 < theta2 < theta3 when strict."""
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    if strict:
        if not (0 < theta1 < theta2 < theta3):
            raise UsageError("need 0 < theta1 < theta2 < theta3")
    elif not (0 <= theta1 < theta2 <= theta3):
        raise UsageError("need 0 <= theta1 < theta2 <= theta3")
    return theta1, theta2, theta3


def triple_params(theta1, theta2, theta3, kappa: int) -> TripleParams:
    theta1, theta2, theta3 = _triple_args(theta1, theta2, theta3)
    _check_kappa(kappa)
    if theta1 == 0:
        alpha = beta_dag = Radical.zero(kappa)
    else:
        alpha = Radical(theta1 / theta3, theta3, kappa)
        beta_dag = Radical.root(theta1, kappa)
    beta, gamma = Radical.root(theta2, kappa), Radical.root(theta3, kappa)
    endpoints = alpha, beta, gamma, Radical(theta2 / theta3, theta3, kappa), beta_dag
    iotas = _iotas(theta1, theta2, theta3) if 0 < theta1 and theta2 < theta3 else (None, None)
    return TripleParams(theta1, theta2, theta3, kappa, *endpoints, *iotas)


def ordering_report(p: TripleParams) -> TheoremReport:
    """The unconditional order relations among the derived endpoints,
    decided on their kappa-th powers."""
    k = p.kappa
    alpha, beta, gamma = p.alpha.power, p.beta.power, p.gamma.power
    alpha_dag, beta_dag = p.alpha_dag.power, p.beta_dag.power
    t2_vs = (p.theta1 * p.theta3 ** (k - 1)) - (p.theta2 ** k)
    dag_cmp = (alpha_dag > beta_dag) - (alpha_dag < beta_dag)
    claims = (
        Claim("alpha < beta", (), "alpha < beta", alpha < beta),
        Claim("beta <= gamma", (), "beta <= gamma", beta <= gamma),
        Claim("alpha < alpha_dag", (), "alpha < alpha_dag", alpha < alpha_dag),
        Claim("alpha_dag <= beta", (), "alpha_dag <= beta", alpha_dag <= beta),
        Claim("beta_dag < beta", (), "beta_dag < beta", beta_dag < beta),
        Claim(
            "alpha*gamma^(k-1) < beta^k",
            (),
            "alpha * gamma**(kappa-1) < beta**kappa",
            alpha * gamma ** (k - 1) < beta ** k,
        ),
        Claim(
            "alpha_dag < beta iff theta2 < theta3",
            (),
            "strictness of alpha_dag < beta matches theta2 < theta3",
            (alpha_dag < beta) == (p.theta2 < p.theta3),
        ),
        Claim(
            "dagger order matches theta comparison",
            (),
            "sign(alpha_dag - beta_dag) == sign(theta2^k - theta1*theta3^(k-1))",
            dag_cmp == -((t2_vs > 0) - (t2_vs < 0)),
        ),
    )
    return TheoremReport("endpoint ordering", claims, data={"params": p})


def _iota_s_star_of(c1: int, c2: int, c3: int) -> int:
    """iota_s_star = 1 + floor(log(theta3/theta2) / log(theta2/theta1)) of
    a triple 0 < theta1 < theta2 < theta3 given as numerators c1 < c2 < c3
    over one denominator; no ratio is divided.

    With a = log(theta2/theta1) and b = log(theta3/theta2), iota_s_star =
    1 + floor(b/a) and iota_s = 1 + floor((a+b)/b) = 2 + floor(a/b).  a - b
    has the sign of c2**2 - c1*c3, so at most one of the two floors is
    nonzero, and a tie gives (iota_s, iota_s_star) = (3, 2): the pair costs
    at most one _floor_log call.
    """
    d = c2 * c2 - c1 * c3
    if d >= 0:  # a >= b
        return 1 if d else 2
    return 1 + _floor_log(c2, c1, c3, c2)


def _iota_s_of(c1: int, c2: int, c3: int, iota_s_star: int) -> int:
    """iota_s = 1 + floor(log(theta3/theta1) / log(theta3/theta2)), as
    _iota_s_star_of takes its triple, given its iota_s_star."""
    if iota_s_star == 1:  # a > b
        return 2 + _floor_log(c3, c2, c2, c1)
    return 3 if iota_s_star == 2 and c2 * c2 == c1 * c3 else 2


def _over_one_denominator(*values: Fraction) -> list[int]:
    """The numerators of the values over their least common denominator."""
    return _numerators(values, math.lcm(*(v.denominator for v in values)))


def _iotas(theta1: Fraction, theta2: Fraction, theta3: Fraction) -> tuple[int, int]:
    """(iota_s, iota_s_star) for 0 < theta1 < theta2 < theta3."""
    c1, c2, c3 = _over_one_denominator(theta1, theta2, theta3)
    star = _iota_s_star_of(c1, c2, c3)
    return _iota_s_of(c1, c2, c3, star), star


def iota_relations(theta1, theta2, theta3) -> TheoremReport:
    """The eight arithmetic relations between iota_s and iota_s_star."""
    theta1, theta2, theta3 = _triple_args(theta1, theta2, theta3, strict=True)
    i_s, i_star = _iotas(theta1, theta2, theta3)
    prod_cmp = theta1 * theta3 - theta2 ** 2
    claims = (
        Claim("(i)", (("iota_s == 2", i_s == 2),), "iota_s_star >= 2", i_star >= 2),
        Claim("(ii)", (("iota_s == 3", i_s == 3),), "iota_s_star in {1, 2}", i_star in (1, 2)),
        Claim(
            "(iii)",
            (),
            "(iota_s == 3 and iota_s_star == 2) iff theta1*theta3 == theta2^2",
            (i_s == 3 and i_star == 2) == (prod_cmp == 0),
        ),
        Claim("(iv)", (("iota_s >= 4", i_s >= 4),), "iota_s_star == 1", i_star == 1),
        Claim(
            "(v)",
            (),
            "iota_s_star == 1 iff theta1*theta3 < theta2^2",
            (i_star == 1) == (prod_cmp < 0),
        ),
        Claim("(vi)", (("iota_s_star == 1", i_star == 1),), "iota_s >= 3", i_s >= 3),
        Claim("(vii)", (("iota_s_star == 2", i_star == 2),), "iota_s in {2, 3}", i_s in (2, 3)),
        Claim("(viii)", (("iota_s_star >= 3", i_star >= 3),), "iota_s == 2", i_s == 2),
    )
    return TheoremReport(
        "iota relations",
        claims,
        data={"iota_s": i_s, "iota_s_star": i_star},
    )


def iota_dagger_relations(theta1, theta2, theta3, kappa: int) -> TheoremReport:
    """Exact relations tying the dagger endpoints to the iota parameters."""
    theta1, theta2, theta3 = _triple_args(theta1, theta2, theta3, strict=True)
    _check_kappa(kappa)
    i_s, i_star = _iotas(theta1, theta2, theta3)
    dag_equal = theta1 * theta3 ** (kappa - 1) == theta2 ** kappa
    claims = (
        Claim(
            "(i)",
            (("alpha_dag == beta_dag", dag_equal), ("kappa >= 3", kappa >= 3)),
            "iota_s_star == 1",
            i_star == 1,
        ),
        Claim(
            "(ii)",
            (("kappa == 2", kappa == 2),),
            "alpha_dag == beta_dag iff (iota_s == 3 and iota_s_star == 2)",
            dag_equal == (i_s == 3 and i_star == 2),
        ),
        Claim(
            "(iii)",
            (("kappa >= iota_s_star", kappa >= i_star),),
            "(theta3/theta1)^kappa > (theta3/theta2)^(kappa+1)",
            (theta3 / theta1) ** kappa > (theta3 / theta2) ** (kappa + 1),
        ),
    )
    return TheoremReport(
        "iota dagger relations",
        claims,
        data={"iota_s": i_s, "iota_s_star": i_star, "kappa": kappa},
    )


def iota_star_witness(p: int) -> tuple[Fraction, Fraction, Fraction]:
    """A rational triple with iota_s = 2 and iota_s_star = p.

    Uses theta3 = 1, theta1 = u**(2p+1), theta2 = u**(2p-1) at
    u = 1/2 and verifies the two iota values exactly before returning.
    """
    if not 2 <= p <= 64:
        raise UsageError(f"witness order p must be in [2, 64], got {p}")
    u = Fraction(1, 2)
    theta1, theta2, theta3 = u ** (2 * p + 1), u ** (2 * p - 1), Fraction(1)
    i_s, i_star = _iotas(theta1, theta2, theta3)
    if i_s != 2 or i_star != p:
        raise RuntimeError(f"witness self-check failed for p={p}: ({i_s}, {i_star})")
    return theta1, theta2, theta3


def _trend(values) -> str:
    if all(b > a for a, b in zip(values, values[1:])):
        return "strictly_increasing"
    if all(b < a for a, b in zip(values, values[1:])):
        return "strictly_decreasing"
    if all(b == a for a, b in zip(values, values[1:])):
        return "constant"
    return "mixed"


def kappa_dependence_scan(
    theta1,
    theta2,
    theta3,
    kappa_max: int,
    precision: int = DEFAULT_PRECISION,
) -> TheoremReport:
    """Scan the kappa-dependence of the dagger endpoints over [2, kappa_max].

    The persistence and crossing statements are checked exactly through the
    equivalence alpha_dag(kappa) < beta_dag(kappa) iff
    theta2**kappa < theta1 * theta3**(kappa-1).  The limit statements are
    restated as monotone-approach assertions over the finite range and
    checked numerically at the given precision; those claims are labeled
    approximate.
    """
    theta1, theta2, theta3 = _triple_args(theta1, theta2, theta3)
    strict = 0 < theta1 and theta2 < theta3
    iota_s = iota_s_star = None
    if strict:
        iota_s, iota_s_star = _iotas(theta1, theta2, theta3)
    low = iota_s if iota_s is not None else 2
    if not max(2, low) <= kappa_max <= 200:
        raise UsageError(f"kappa_max must lie in [{max(2, low)}, 200]")
    kappas = range(2, kappa_max + 1)

    # (iii): exact persistence of alpha_dag(kappa) < beta_dag(kappa)
    crossed = [theta2 ** k < theta1 * theta3 ** (k - 1) for k in kappas]
    persistent = all(b or not a for a, b in zip(crossed, crossed[1:]))
    claims = [
        Claim(
            "(iii) persistence",
            (),
            "once alpha_dag(k) < beta_dag(k) holds it holds for every larger k",
            persistent,
        )
    ]

    # (iv): exact crossing at kappa = iota_s
    claims.append(
        Claim(
            "(iv) crossing at iota_s",
            (("0 < theta1 < theta2 < theta3", strict),),
            "alpha_dag(iota_s) < beta_dag(iota_s)",
            theta2 ** iota_s < theta1 * theta3 ** (iota_s - 1) if strict else None,
        )
    )

    # (i)/(ii): limits, restated as monotone approach and checked numerically
    alpha_dag_vals = [bigfloat_root(_scaled_power(theta2, theta3, k), k, precision) for k in kappas]
    target = theta2 / theta3
    dist_a = [abs(v - target) for v in alpha_dag_vals]
    claims.append(
        Claim(
            "(i) alpha_dag limit",
            (),
            "|alpha_dag(k) - theta2/theta3| is nonincreasing over the range",
            all(b <= a for a, b in zip(dist_a, dist_a[1:])),
            approximate=True,
        )
    )
    beta_dag_vals = None
    if theta1 > 0:
        beta_dag_vals = [bigfloat_root(theta1, k, precision) for k in kappas]
        dist_b = [abs(v - 1) for v in beta_dag_vals]
        holds_b = all(b <= a for a, b in zip(dist_b, dist_b[1:]))
    else:
        holds_b = None
    claims.append(
        Claim(
            "(ii) beta_dag limit",
            (("theta1 > 0", theta1 > 0),),
            "|beta_dag(k) - 1| is nonincreasing over the range",
            holds_b,
            approximate=True,
        )
    )

    # (v): strict growth of beta_dag - alpha_dag from iota_s on
    data: dict = {"iota_s": iota_s, "iota_s_star": iota_s_star}
    if strict:
        hyp_small = theta1 <= 1
        if hyp_small:
            hyp_log = False
        else:
            ratio = theta2 / theta3
            hyp_log = theta1 ** ratio.denominator <= theta3 ** ratio.numerator
        diffs = [
            b - a
            for b, a, k in zip(beta_dag_vals, alpha_dag_vals, kappas)
            if k >= iota_s
        ]
        trend = _trend(diffs)
        claims.append(
            Claim(
                "(v) difference growth",
                (
                    ("0 < theta1 < theta2 < theta3", True),
                    (
                        "theta1 <= 1, or log(theta1) <= (theta2/theta3)*log(theta3)",
                        hyp_small or hyp_log,
                    ),
                ),
                "beta_dag(k) - alpha_dag(k) strictly increases for k >= iota_s",
                trend == "strictly_increasing",
                approximate=True,
            )
        )
        data["differences"] = diffs
        data["difference_trend"] = trend
        if len(diffs) > 1:
            data["difference_min_gap"] = min(abs(b - a) for a, b in zip(diffs, diffs[1:]))
    return TheoremReport("kappa-dependence scan", tuple(claims), data=data)


# ---------------------------------------------------------------------------
# the certified root pair and the support utilities shared by the checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class RootPair:
    """mu together with a certified kappa-th root nu.

    RootPair(mu, nu, kappa) is the only way to build one, and it checks the
    pair once: an AtomicMeasure nu must have kappa-fold pushforward mu, and
    a NuRepresentation (as decide_root returns it) must have index kappa
    and pass verify_representation.  powers holds the kappa-th powers of
    nu's atoms in ascending order, the one encoding of supp nu whatever nu
    came from; nu's weights are dropped, because no hole statement reads
    them.
    """

    mu: AtomicMeasure
    kappa: int
    powers: tuple[Fraction, ...]

    def __init__(self, mu: AtomicMeasure, nu: AtomicMeasure | NuRepresentation, kappa: int):
        _check_kappa(kappa)
        if isinstance(nu, AtomicMeasure):
            if kappa_power_measure(nu, kappa) != mu:
                raise UsageError("nu is not a certified kappa-th root of mu")
            powers = tuple(x ** kappa for x in nu.support)
        elif isinstance(nu, NuRepresentation):
            if nu.kappa != kappa or not verify_representation(mu, nu):
                raise UsageError("nu is not a certified kappa-th root of mu")
            # verification ignores the entries' order; bisection does not
            powers = tuple(sorted(nu.positive_powers()))
        else:
            raise UsageError("nu must be an AtomicMeasure or a NuRepresentation")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "powers", powers)


class _IntSupport:
    """supp mu as the hole loops read it: its points x_0 < ... < x_n, the
    text of each point, and the points as integers, nums[i]/den = x_i over
    their least common denominator den.  Hole i is (x_{i-1}, x_i) with
    x_{-1} = 0, hole 0 the leading one, as find_holes(mu) lists them; hole
    i is interior, strictly inside (0, sup supp mu), for 0 < i < n.  texts
    is built when first read, with one format_rational call per point.

    iota_stars and iotas are the columns of the iota table, one entry per
    hole: iota_s_star, and the pair (iota_s, iota_s_star), on an interior
    hole, None on the others.  Each is computed once, when it is first
    read, and iota_stars alone first: the order scans read only
    iota_s_star, so a fuzz trial whose scan a guard refuses is skipped
    before any iota_s is computed.  The sign of c2**2 - c1*c3 tells which
    column pays for a hole (_iota_s_star_of), so the two columns make at
    most one _floor_log call per interior hole between them.
    """

    def __init__(self, mu: AtomicMeasure):
        self.mu = mu
        self.points = points = mu.support
        self.den = math.lcm(*(x.denominator for x in points))
        self.nums = _numerators(points, self.den)

    @cached_property
    def texts(self) -> list[str]:
        return [format_rational(x) for x in self.points]

    @cached_property
    def iota_stars(self) -> list[Optional[int]]:
        nums = self.nums
        top = nums[-1]
        interior = [_iota_s_star_of(c1, c2, top) for c1, c2 in zip(nums, nums[1:-1])]
        return [None, *interior, None][: len(nums)]  # one hole per point

    @cached_property
    def iotas(self) -> list[Optional[tuple[int, int]]]:
        nums = self.nums
        top = nums[-1]
        return [
            None if star is None else (_iota_s_of(c1, c2, top, star), star)
            for c1, c2, star in zip([0, *nums], nums, self.iota_stars)
        ]


def _lowest_text(num: int, den: int) -> str:
    """format_rational of num/den for integers num >= 0 and den > 0, with no
    Fraction built."""
    g = math.gcd(num, den)
    return _ratio_text(num // g, den // g)


def _triples(table: _IntSupport, kappa: int) -> JsonText:
    """The JSON text of the list of the TripleParams of every hole of the
    table, with theta3 = sup supp mu, built from its points, their texts
    and its iota table, and written at the depth analyze prints it.

    Hole i is (x_{i-1}, x_i) (x_{-1} = 0), so alpha_i = alpha_dag_{i-1} and
    beta_dag_i = beta_{i-1}:
    each x gets one x**(1/kappa) text and one (x/theta3) * theta3**(1/kappa)
    text, shared by the two holes it bounds.  Each x is tested once for a
    rational kappa-th root; the scaled radical is rational exactly when
    theta3's root is, and its kappa-th power is c**kappa / (c3**(kappa-1) *
    den) for x = c/den and theta3 = c3/den.  The coefficient x/theta3 =
    c/c3 and a rational scaled value are written from these integers, with
    no Fraction per point.
    """
    points, texts, nums = table.points, table.texts, table.nums
    top = nums[-1]
    pad = "      "  # a field of a triple, an element of the block's list
    exact = [_perfect_root(x.numerator, x.denominator, kappa) for x in points]
    root3, text3 = exact[-1], texts[-1]
    roots = [
        _radical_text("1", text, kappa, None if r is None else format_rational(r), (x.numerator, x.denominator), pad)
        for x, text, r in zip(points, texts, exact)
    ]
    coeffs = [_lowest_text(c, top) for c in nums[:-1]]  # x/theta3
    if root3 is None:
        den = top ** (kappa - 1) * table.den
        scaled = [_radical_text(q, text3, kappa, None, (c ** kappa, den), pad) for q, c in zip(coeffs, nums)]
    else:
        rn, rd = root3.numerator, root3.denominator
        scaled = [_radical_text(q, text3, kappa, _lowest_text(c * rn, top * rd), pad=pad) for q, c in zip(coeffs, nums)]
    scaled.append(roots[-1])  # at x = theta3 the scaled radical is gamma's
    origin = _radical_text("0", "1", kappa, "0", pad=pad)
    gamma = roots[-1]
    lows = zip(["0", *texts], [origin, *scaled], [origin, *roots])
    items = []
    for theta2, beta, alpha_dag, (theta1, alpha, beta_dag), iotas in zip(texts, roots, scaled, lows, table.iotas):
        iotas = ("null", "null") if iotas is None else iotas
        items.append(
            _triple_text(theta1, theta2, text3, kappa, alpha, beta, gamma, alpha_dag, beta_dag, *iotas, pad="    ")
        )
    return JsonText("[\n    " + ",\n    ".join(items) + "\n  ]")


def _report_head(theorem: str, applicable: bool, claims, violated) -> str:
    """The start of a report's JSON text as _reports_text writes it: its
    theorem, applicable, claims and violations keys.  A claim's holds
    values are bools or None, as Claim's fields declare them."""
    quote, literal = encode_basestring_ascii, _LITERAL
    items = []
    for c in claims:
        hyps = "[]"
        if c.hypotheses:
            hyps = "[\n            " + ",\n            ".join([
                f'{{\n              "name": {quote(name)},\n              "holds": {literal[ok]}\n            }}'
                for name, ok in c.hypotheses
            ]) + "\n          ]"
        items.append(
            f'{{\n          "name": {quote(c.name)},\n          "hypotheses": {hyps},'
            f'\n          "conclusion": {quote(c.conclusion)},'
            f'\n          "holds": {literal[c.holds]},\n          "approximate": {literal[c.approximate]}\n        }}'
        )
    claims = "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"
    names = "[\n        " + ",\n        ".join([quote(c.name) for c in violated]) + "\n      ]" if violated else "[]"
    return (
        f'{{\n      "theorem": {quote(theorem)},\n      "applicable": {literal[applicable]},'
        f'\n      "claims": {claims},\n      "violations": {names}'
    )


def _reports_text(reports) -> JsonText:
    """The JSON text of the list of reports, written at the depth analyze
    prints it: the one writer of the report shape.  An applicable report
    whose claims are a _Claims of its theorem splices the head built with
    them; any other has its head written by _report_head from its claims
    and its violations.  A data value that is a bool, int, Fraction, str
    or None is written inline; any other goes through json.dumps(v,
    indent=2, default=_lowered), indented to its depth.  Keys of data are
    strs, keys of dicts inside it strs or ints.
    """
    quote, literal = encode_basestring_ascii, _LITERAL
    items = []
    for r in reports:
        claims = r.claims
        if type(claims) is _Claims and claims.theorem == r.theorem and r.applicable:
            text = claims.head
        else:
            text = _report_head(r.theorem, r.applicable, claims, r.violations)
        if r.note:
            text += f',\n      "note": {quote(r.note)}'
        if r.data:
            entries = []
            for key, v in r.data.items():
                kind = type(v)
                if kind is bool or v is None:
                    value = literal[v]
                elif kind is int:
                    value = int.__repr__(v)
                elif kind is Fraction:
                    value = f'"{format_rational(v)}"'  # digits, "-" and "/" need no escaping
                elif kind is str:
                    value = quote(v)
                else:
                    value = json.dumps(v, indent=2, default=_lowered).replace("\n", "\n        ")
                entries.append(f"{quote(key)}: {value}")
            text += ',\n      "data": {\n        ' + ",\n        ".join(entries) + "\n      }"
        items.append(text + "\n    }")
    return JsonText("[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]")


def _endpoint_power(value, kappa: int) -> Fraction:
    """The kappa-th power of a nonnegative rational or index-kappa Radical."""
    if isinstance(value, Radical):
        if value.index != kappa:
            raise UsageError(f"endpoint radical has index {value.index}, expected {kappa}")
        return value.power
    value = Fraction(value)
    if value < 0:
        raise UsageError("endpoints must be nonnegative")
    return value ** kappa


def _radical(power: Fraction, kappa: int) -> Radical:
    """The nonnegative kappa-th root of power, as a Radical."""
    return Radical.root(power, kappa) if power else Radical.zero(kappa)


def _some_inside(seq, lo, hi, key=None) -> bool:
    """Some element of the ascending seq lies strictly inside (lo, hi)."""
    i = bisect_right(seq, lo, key=key)
    return i < len(seq) and (seq[i] if key is None else key(seq[i])) < hi


def _member(seq, x, key=None) -> bool:
    """x is an element of the ascending seq."""
    i = bisect_left(seq, x, key=key)
    return i < len(seq) and (seq[i] if key is None else key(seq[i])) == x


_point = itemgetter(0)  # the key that reads mu.atoms as supp mu


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------


def check_hole_forward(
    pair: RootPair, alpha, beta, canonicalize: bool = False
) -> TheoremReport:
    """Transfer of a hole of supp nu to a hole of supp mu.

    With gamma = sup supp nu, theta1 = alpha*gamma**(kappa-1),
    theta2 = beta**kappa and theta3 = gamma**kappa: (i) mu has no mass in
    (theta1, theta2) and theta3 = sup supp mu; (ii) alpha in supp nu iff
    theta1 in supp mu; (iii) beta in supp nu iff theta2 in supp mu.
    Precondition failures are reported (applicable=False), not raised.
    Decided on kappa-th powers: a = alpha**kappa, b = beta**kappa and
    g = gamma**kappa = theta3, so the kappa-th powers of theta1, theta2 and
    theta3 are a*g**(kappa-1), b**kappa and g**kappa.
    """
    mu, kappa, powers = pair.mu, pair.kappa, pair.powers
    a = _endpoint_power(alpha, kappa)
    b = _endpoint_power(beta, kappa)
    g = powers[-1]
    data: dict = {}

    def preconditions(a: Fraction, b: Fraction):
        return (
            ("nu((alpha, beta)) == 0", not _some_inside(powers, a, b)),
            ("0 <= alpha < beta <= sup supp nu", a < b <= g),
            ("alpha*gamma^(kappa-1) < beta^kappa", a * g ** (kappa - 1) < b ** kappa),
        )

    extra_claims: list[Claim] = []
    if canonicalize:
        original_ok = all(ok for _, ok in preconditions(a, b))
        data["canonicalized_from"] = {"alpha": _radical(a, kappa), "beta": _radical(b, kappa)}
        below = bisect_right(powers, a)  # atoms <= alpha
        above = bisect_left(powers, b)  # first atom >= beta
        a = powers[below - 1] if below else Fraction(0)
        b = powers[above] if above < len(powers) else b
        extra_claims.append(
            Claim(
                "canonicalization",
                (("original endpoints satisfy the preconditions", original_ok),),
                "snapped endpoints satisfy the preconditions as well",
                all(ok for _, ok in preconditions(a, b)),
            )
        )

    hyps = preconditions(a, b)
    applicable = all(ok for _, ok in hyps)

    t1, t2 = a * g ** (kappa - 1), b ** kappa  # kappa-th powers of theta1, theta2
    data["theta1"], data["theta2"] = _radical(t1, kappa), _radical(t2, kappa)
    data["theta3"] = _radical(g ** kappa, kappa)

    if applicable:
        # supp mu against theta1 and theta2, through kappa-th powers
        def key(atom):
            return atom[0] ** kappa

        c1 = not _some_inside(mu.atoms, t1, t2, key) and mu.max_point == g
        c2 = _member(powers, a) == _member(mu.atoms, t1, key)
        c3 = _member(powers, b) == _member(mu.atoms, t2, key)
    else:
        c1 = c2 = c3 = None
    claims = (
        Claim(
            "(i)",
            hyps,
            "mu((theta1, theta2)) == 0 and theta3 == sup supp mu",
            c1,
        ),
        Claim("(ii)", hyps, "alpha in supp nu iff theta1 in supp mu", c2),
        Claim("(iii)", hyps, "beta in supp nu iff theta2 in supp mu", c3),
        *extra_claims,
    )
    return TheoremReport("hole transfer nu->mu", claims, applicable=applicable, data=data)


def _mu_hole(mu: AtomicMeasure, theta1, theta2) -> tuple[Fraction, Fraction]:
    """(theta1, theta2) as Fractions, after checking it is a hole of supp mu."""
    theta1, theta2 = Fraction(theta1), Fraction(theta2)
    if not 0 <= theta1 < theta2:
        raise UsageError("need 0 <= theta1 < theta2")
    if _some_inside(mu.atoms, theta1, theta2, _point):
        raise UsageError("(theta1, theta2) is not a hole of supp mu")
    return theta1, theta2


def _scaled_power(x: Fraction, theta3: Fraction, kappa: int) -> Fraction:
    """((x/theta3) * theta3**(1/kappa))**kappa: alpha**kappa for x = theta1,
    alpha_dag**kappa for x = theta2."""
    return x ** kappa / theta3 ** (kappa - 1)


class _HoleFacts(NamedTuple):
    """What check_hole_backward and check_iota_hole_criteria read of a hole
    (theta1, theta2) of supp mu, theta3 = sup supp mu, decided on integers
    by _hole_facts."""

    upper_ok: bool  # theta2 <= theta3
    beta_in_supp: bool
    bd_vs_ad: int  # the sign of beta_dag - alpha_dag
    gba_small: bool  # (gamma/beta)*alpha < alpha_dag
    concl_i: bool  # nu((beta_dag, beta)) == 0
    concl_ii: bool  # nu((alpha, alpha_dag)) == 0
    concl_iii: bool  # nu((alpha, beta)) == 0
    iotas: Optional[tuple[int, int]]  # (iota_s, iota_s_star), or None


def _hole_facts(keys: list[int], kappa: int, c1: int, c2: int, c3: int, iotas) -> _HoleFacts:
    """The facts of the hole (c1/D, c2/D) of supp mu, with theta3 = c3/D,
    for keys the kappa-th powers of supp nu over D in ascending order (they
    lie in supp mu, so they are integers over D), passing iotas through.

    The kappa-th powers of beta_dag, beta and gamma are theta1, theta2 and
    theta3, and those of alpha and alpha_dag are c1**kappa/(s*D) and
    c2**kappa/(s*D) with s = c3**(kappa-1).  So a key k exceeds alpha**kappa
    iff k > c1**kappa // s and lies below alpha_dag**kappa iff k*s <
    c2**kappa; (gamma/beta)*alpha < alpha_dag iff c1**kappa * c3 <
    c2**(kappa+1); and beta_dag - alpha_dag has the sign of c1*s -
    c2**kappa.
    """
    s = c3 ** (kappa - 1)
    t1, t2 = c1 ** kappa, c2 ** kappa
    n = len(keys)
    i = bisect_right(keys, c1)  # the first key above theta1
    j = bisect_right(keys, t1 // s)  # the first key above alpha**kappa
    b = bisect_left(keys, c2, i)
    diff = c1 * s - t2
    return _HoleFacts(
        c2 <= c3,
        b < n and keys[b] == c2,
        (diff > 0) - (diff < 0),
        t1 * c3 < t2 * c2,
        i == n or keys[i] >= c2,
        j == n or keys[j] * s >= t2,
        j == n or keys[j] >= c2,
        iotas,
    )


def _checked_facts(pair: RootPair, theta1, theta2, with_iotas: bool) -> _HoleFacts:
    """_hole_facts of (theta1, theta2), after checking it is a hole of supp
    mu, over the least common denominator of theta1, theta2, theta3 and
    supp nu's kappa-th powers; the iotas only when asked for and the hole
    is interior."""
    theta1, theta2 = _mu_hole(pair.mu, theta1, theta2)
    theta3 = pair.mu.max_point
    c1, c2, c3, *keys = _over_one_denominator(theta1, theta2, theta3, *pair.powers)
    iotas = _iotas(theta1, theta2, theta3) if with_iotas and 0 < c1 and c2 < c3 else None
    return _hole_facts(keys, pair.kappa, c1, c2, c3, iotas)


def _backward_claims(concl_i, upper_ok, concl_ii, cond_a, concl_iii, gba_small, beta_in_supp, bd_le_ad):
    """The claims of check_hole_backward, given its facts as bools."""
    hyp_upper = ("theta2 <= sup supp mu", upper_ok)
    return (
        Claim("(i)", (), "nu((beta_dag, beta)) == 0", concl_i),
        Claim("(ii)", (hyp_upper,), "nu((alpha, alpha_dag)) == 0", concl_ii),
        Claim(
            "(iii-a)",
            (
                hyp_upper,
                (
                    "beta_dag < alpha_dag, or beta_dag <= alpha_dag with kappa >= 3, "
                    "or beta_dag == alpha_dag with beta in supp nu",
                    cond_a,
                ),
            ),
            "nu((alpha, beta)) == 0",
            concl_iii,
        ),
        Claim(
            "(iii-b)",
            (
                hyp_upper,
                ("(gamma/beta)*alpha < alpha_dag", gba_small),
                ("beta in supp nu", beta_in_supp),
            ),
            "nu((alpha, beta)) == 0",
            concl_iii,
        ),
        Claim(
            "dagger remark",
            (hyp_upper, ("beta_dag <= alpha_dag", bd_le_ad)),
            "(gamma/beta)*alpha < alpha_dag",
            gba_small,
        ),
    )


def check_hole_backward(pair: RootPair, theta1, theta2, *, _facts: Optional[_HoleFacts] = None) -> TheoremReport:
    """Candidate holes of supp nu induced by a hole (theta1, theta2) of supp mu,
    with theta3 = sup supp mu; theta2 > theta3 is allowed.  Only the hole
    walk passes _facts, the facts of a hole of its _IntSupport.  Its claims
    come from _interned, so holes with equal facts share one tuple."""
    f = _checked_facts(pair, theta1, theta2, False) if _facts is None else _facts
    bd_vs_ad, beta_in_supp = f.bd_vs_ad, f.beta_in_supp
    cond_a = (
        bd_vs_ad < 0
        or (bd_vs_ad <= 0 and pair.kappa >= 3)
        or (bd_vs_ad == 0 and beta_in_supp)
    )
    key = ("hole transfer mu->nu", f.concl_i, f.upper_ok, f.concl_ii, cond_a, f.concl_iii, f.gba_small, beta_in_supp,
           bd_vs_ad <= 0)
    return TheoremReport(
        "hole transfer mu->nu",
        _interned(key, _backward_claims),
        data={
            "theta3": pair.mu.max_point,
            "beta_in_support": beta_in_supp,
            "beta_dag_vs_alpha_dag": bd_vs_ad,
        },
    )


def _exterior(theorem: str) -> TheoremReport:
    """The report of a checker that reads iota on a hole of supp mu that is
    not strictly inside (0, sup supp mu)."""
    return TheoremReport(theorem, applicable=False, note="requires 0 < theta1 < theta2 < sup supp mu")


def _iota_claims(kappa_ge_star, beta_in_supp, s_ge_star, s_ge_3, s_ge_4, star_is_1, conclusion):
    """The claims of check_iota_hole_criteria, given its facts as bools."""
    in_supp = ("beta in supp nu", beta_in_supp)
    conditions = (
        ("(i)", (("kappa >= iota_s_star", kappa_ge_star), in_supp)),
        ("(ii)", (("iota_s >= iota_s_star", s_ge_star), in_supp)),
        ("(iii)", (("iota_s >= 3", s_ge_3), in_supp)),
        ("(iv)", (("iota_s >= 4", s_ge_4),)),
        ("(v)", (("iota_s_star == 1", star_is_1),)),
    )
    return tuple(Claim(name, hyps, "nu((alpha, beta)) == 0", conclusion) for name, hyps in conditions)


def check_iota_hole_criteria(pair: RootPair, theta1, theta2, *, _facts: Optional[_HoleFacts] = None) -> TheoremReport:
    """iota-based sufficient conditions for (alpha, beta) being a nu-hole,
    for a hole (theta1, theta2) of supp mu with theta3 = sup supp mu.  Only
    the hole walk passes _facts, as check_hole_backward takes them; its
    claims come from _interned too."""
    f = _checked_facts(pair, theta1, theta2, True) if _facts is None else _facts
    if f.iotas is None:
        return _exterior("iota hole criteria")
    (iota_s, iota_s_star), beta_in_supp, conclusion = f.iotas, f.beta_in_supp, f.concl_iii
    key = ("iota hole criteria", pair.kappa >= iota_s_star, beta_in_supp, iota_s >= iota_s_star, iota_s >= 3,
           iota_s >= 4, iota_s_star == 1, conclusion)
    return TheoremReport(
        "iota hole criteria",
        _interned(key, _iota_claims),
        data={
            "iota_s": iota_s,
            "iota_s_star": iota_s_star,
            "beta_in_support": beta_in_supp,
            "conclusion": conclusion,
        },
    )


def check_top_of_support(pair: RootPair, theta1, theta2, theta3) -> TheoremReport:
    """Paired-hole and top-of-support transfer statements."""
    theta1, theta2, theta3 = _triple_args(theta1, theta2, theta3)
    mu, powers = pair.mu, pair.powers
    # the kappa-th powers of beta_dag, beta and gamma are theta1, theta2, theta3
    alpha_k = _scaled_power(theta1, theta3, pair.kappa)

    hole_12 = not _some_inside(mu.atoms, theta1, theta2, _point)
    hole_23 = not _some_inside(mu.atoms, theta2, theta3, _point)
    top = mu.max_point == theta2
    t1_in_mu = _member(mu.atoms, theta1, _point)

    cond_a = t1_in_mu and top and hole_12
    alpha_in_nu = _member(powers, alpha_k)
    beta_in_nu = _member(powers, theta2)
    beta_is_sup = powers[-1] == theta2
    nu_hole = not _some_inside(powers, alpha_k, theta2)
    cond_b = alpha_in_nu and beta_is_sup and nu_hole

    claims = (
        Claim(
            "(i)",
            (
                ("theta2 < theta3", theta2 < theta3),
                ("mu((theta1, theta2)) == 0", hole_12),
                ("mu((theta2, theta3)) == 0", hole_23),
            ),
            "nu((beta_dag, beta)) == 0 and nu((beta, gamma)) == 0",
            not _some_inside(powers, theta1, theta2)
            and not _some_inside(powers, theta2, theta3),
        ),
        Claim(
            "(ii)",
            (
                ("theta2 == theta3", theta2 == theta3),
                ("theta2 == sup supp mu", top),
                ("mu((theta1, theta2)) == 0", hole_12),
            ),
            "nu((alpha, beta)) == 0 and beta in supp nu",
            nu_hole and beta_in_nu,
        ),
        Claim(
            "(iii)",
            (
                ("theta2 == theta3", theta2 == theta3),
                ("theta1 in supp mu", t1_in_mu),
                ("theta2 == sup supp mu", top),
                ("mu((theta1, theta2)) == 0", hole_12),
            ),
            "nu((alpha, beta)) == 0 and {alpha, beta} subset of supp nu",
            nu_hole and alpha_in_nu and beta_in_nu,
        ),
        Claim(
            "(iv)",
            (("theta2 == theta3", theta2 == theta3),),
            "theta-side conditions hold iff nu-side conditions hold",
            cond_a == cond_b,
        ),
    )
    return TheoremReport(
        "top-of-support transfer",
        claims,
        data={"cond_a": cond_a, "cond_b": cond_b},
    )


def check_lower_support(pair: RootPair) -> TheoremReport:
    """Bottom-of-support transfer: minima map to kappa-th powers and back."""
    mu, powers = pair.mu, pair.powers
    beta = Radical.root(powers[0], pair.kappa)
    theta = mu.min_point
    below_root = powers[0] < theta  # both supports are ascending
    min_nu = beta.to_rational()
    claims = (
        Claim(
            "(i)",
            (("nu([0, beta)) == 0 for beta = min supp nu", True),),
            "mu([0, beta^kappa)) == 0",
            theta >= powers[0],
        ),
        Claim(
            "(ii)",
            (("mu([0, theta)) == 0 for theta = min supp mu", True),),
            "nu([0, theta^(1/kappa))) == 0",
            not below_root,
        ),
        Claim(
            "(iii)",
            (
                ("mu([0, theta)) == 0 for theta = min supp mu", True),
                ("theta in supp mu", True),
            ),
            "nu([0, theta^(1/kappa))) == 0 and theta^(1/kappa) in supp nu",
            not below_root and _member(powers, theta),
        ),
    )
    return TheoremReport(
        "bottom of support",
        claims,
        data={"min_mu": theta, "min_nu": beta if min_nu is None else min_nu},
    )


def check_root_order_membership(
    mu: AtomicMeasure, theta1, theta2, kappa_max: int, *, _iota_s_star: Optional[int] = None,
    _decisions: Optional[dict] = None,
) -> TheoremReport:
    """Equivalence of theta2-membership across every working root order.

    J is the set of kappa in [2, kappa_max] whose root decision is
    CertifiedYes.  Requires iota_s_star = 1; reported as not applicable
    otherwise (and when J is empty).  mu is decided at the orders
    2..kappa_max only when iota_s_star = 1.  Only the order scans pass
    _iota_s_star, that of an interior hole of their _IntSupport, and
    _decisions, the decisions of mu by order that the call reads, and
    extends by each order it decides.
    """
    iota_s_star = _iota_s_star
    if iota_s_star is None:
        theta1, theta2 = _mu_hole(mu, theta1, theta2)
        _check_kappa(kappa_max, "kappa_max must be in [2, 16]")
        theta3 = mu.max_point
        if not (0 < theta1 and theta2 < theta3):
            return _exterior("membership across root orders")
        iota_s_star = _iota_s_star_of(*_over_one_denominator(theta1, theta2, theta3))
    if iota_s_star != 1:
        return TheoremReport(
            "membership across root orders",
            applicable=False,
            note=f"requires iota_s_star == 1, got {iota_s_star}",
            data={"iota_s_star": iota_s_star},
        )
    decisions = {} if _decisions is None else _decisions
    for k in range(2, kappa_max + 1):
        if k not in decisions:
            decisions[k] = decide_root(mu, k)
    working = {k: decisions[k] for k in range(2, kappa_max + 1) if decisions[k].is_yes}
    if not working:
        return TheoremReport(
            "membership across root orders",
            applicable=False,
            note=f"J intersected with [2, {kappa_max}] is empty",
            data={"iota_s_star": iota_s_star},
        )
    membership = {k: _member(d.nu.positive_powers(), theta2) for k, d in working.items()}
    in_mu = _member(mu.atoms, theta2, _point)
    some = any(membership.values())
    every = all(membership.values())
    claims = (
        Claim(
            "equivalence",
            (
                ("iota_s_star == 1", True),
                ("J nonempty within [2, kappa_max]", True),
            ),
            "theta2 in supp mu iff beta(kappa) in supp nu_kappa for some kappa in J "
            "iff for every kappa in J",
            in_mu == some == every,
        ),
    )
    return TheoremReport(
        "membership across root orders",
        claims,
        data={
            "J": sorted(working),
            "iota_s_star": iota_s_star,
            "theta2_in_supp_mu": in_mu,
            "membership": membership,
        },
    )


def _order_scans(table: _IntSupport, kappa_max: int, decisions: Optional[dict] = None):
    """check_root_order_membership on each interior hole of the table (None
    on the others), and (i, reason) per hole i whose scan a guard refused.
    The scans read the table's iota_s_star column alone, and only
    iota_s_star == 1 holes decide mu at the orders 2..kappa_max, so a
    caller that skips a refused scan learns of it before any other check.
    decisions holds the decisions of mu by order that the caller has made;
    the scans share it, so mu is decided at most once at each order."""
    mu, points = table.mu, table.points
    decisions = {} if decisions is None else decisions
    scans, refused = [], []
    for i, star in enumerate(table.iota_stars):
        report = None
        if star is not None:  # 0 < i < n
            try:
                report = check_root_order_membership(
                    mu, points[i - 1], points[i], kappa_max, _iota_s_star=star, _decisions=decisions
                )
            except GuardExceeded as exc:
                refused.append((i, str(exc)))
        scans.append(report)
    return scans, refused


def _walk_holes(pair: RootPair, scans, table: _IntSupport) -> list[TheoremReport]:
    """The reports of every hole of the table, in order:
    check_hole_backward, check_iota_hole_criteria and the hole's scan from
    _order_scans, if any.  Each hole's facts are decided once, on the
    table's integers, and read by both checkers.  Each checker is entered
    by its public name, so a wrapper on it sees every hole."""
    points, nums = table.points, table.nums
    keys = _numerators(pair.powers, table.den)
    kappa, top = pair.kappa, nums[-1]
    reports = []
    for theta1, theta2, scan, c1, c2, iotas in zip([Fraction(0), *points], points, scans, [0, *nums], nums, table.iotas):
        facts = _hole_facts(keys, kappa, c1, c2, top, iotas)
        reports.append(check_hole_backward(pair, theta1, theta2, _facts=facts))
        reports.append(check_iota_hole_criteria(pair, theta1, theta2, _facts=facts))
        if scan is not None:
            reports.append(scan)
    return reports
