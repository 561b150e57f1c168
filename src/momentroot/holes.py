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
theta3, so the mu->nu checkers decide on those and build no radicals.
Checkers return TheoremReports; a report whose hypotheses all hold but
whose conclusion fails is a counterexample and is treated as a failure by
the fuzz harness.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional

from .exact import (
    DEFAULT_PRECISION,
    GuardExceeded,
    Radical,
    UsageError,
    floor_log_ratio,
    format_rational,
    radical_compare,
)
from .measures import AtomicMeasure, _check_kappa, kappa_power_measure
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

    @property
    def violated(self) -> bool:
        return self.hypotheses_hold and self.holds is False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": [{"name": n, "holds": h} for n, h in self.hypotheses],
            "conclusion": self.conclusion,
            "holds": self.holds,
            "approximate": self.approximate,
        }


@dataclass
class TheoremReport:
    theorem: str
    claims: tuple[Claim, ...] = ()
    applicable: bool = True
    note: str = ""
    data: dict = field(default_factory=dict)

    @property
    def violations(self) -> tuple[Claim, ...]:
        return tuple(c for c in self.claims if c.violated)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "claims": [c.to_dict() for c in self.claims],
            "violations": [c.name for c in self.violations],
        }
        if self.note:
            out["note"] = self.note
        if self.data:
            out["data"] = {k: json_value(v) for k, v in self.data.items()}
        return out


def json_value(v):
    """Lower report payloads to JSON-ready values; rationals become strings."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, Radical):
        return radical_to_dict(v)
    if isinstance(v, dict):
        return {str(k) if not isinstance(k, str) else k: json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_value(x) for x in v]
    return v


APPROX_BITS = 64  # precision of the approx of an irrational radical in JSON


def radical_to_dict(r: Radical) -> dict:
    exact = r.to_rational()
    out = {
        "coeff": format_rational(r.coeff),
        "radicand": format_rational(r.radicand),
        "index": r.index,
        "rational": format_rational(exact) if exact is not None else None,
    }
    if exact is None:
        approx = r.approx(APPROX_BITS)
        out["approx"] = {"decimal": approx.decimal(), "precision_bits": APPROX_BITS}
    return out


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

    def to_dict(self, render: Callable[[Radical], dict] = radical_to_dict) -> dict:
        return {
            "theta1": format_rational(self.theta1),
            "theta2": format_rational(self.theta2),
            "theta3": format_rational(self.theta3),
            "kappa": self.kappa,
            "alpha": render(self.alpha),
            "beta": render(self.beta),
            "gamma": render(self.gamma),
            "alpha_dag": render(self.alpha_dag),
            "beta_dag": render(self.beta_dag),
            "iota_s": self.iota_s,
            "iota_s_star": self.iota_s_star,
        }


def _validate_triple(theta1, theta2, theta3, strict: bool = False):
    if strict:
        if not (0 < theta1 < theta2 < theta3):
            raise UsageError("need 0 < theta1 < theta2 < theta3")
    elif not (0 <= theta1 < theta2 <= theta3):
        raise UsageError("need 0 <= theta1 < theta2 <= theta3")


def _triple(
    theta1: Fraction, theta2: Fraction, theta3: Fraction, kappa: int, endpoints=None
) -> TripleParams:
    """TripleParams for theta3 > 0 without validation, so theta2 > theta3 (a
    hole above sup supp mu) is allowed; endpoints, when given, are the
    (alpha, beta, gamma, alpha_dag, beta_dag) of the triple."""
    iotas = _iotas(theta1, theta2, theta3) if 0 < theta1 and theta2 < theta3 else (None, None)
    if endpoints is None:
        if theta1 == 0:
            alpha = beta_dag = Radical.zero(kappa)
        else:
            alpha = Radical(theta1 / theta3, theta3, kappa)
            beta_dag = Radical.root(theta1, kappa)
        beta, gamma = Radical.root(theta2, kappa), Radical.root(theta3, kappa)
        endpoints = alpha, beta, gamma, Radical(theta2 / theta3, theta3, kappa), beta_dag
    return TripleParams(theta1, theta2, theta3, kappa, *endpoints, *iotas)


def triple_params(theta1, theta2, theta3, kappa: int) -> TripleParams:
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    _validate_triple(theta1, theta2, theta3)
    _check_kappa(kappa)
    return _triple(theta1, theta2, theta3, kappa)


def ordering_report(p: TripleParams) -> TheoremReport:
    """The unconditional order relations among the derived endpoints."""
    k = p.kappa
    lhs = p.alpha * p.gamma ** (k - 1)
    t2_vs = (p.theta1 * p.theta3 ** (k - 1)) - (p.theta2 ** k)
    dag_cmp = radical_compare(p.alpha_dag, p.beta_dag)
    claims = (
        Claim("alpha < beta", (), "alpha < beta", p.alpha < p.beta),
        Claim("beta <= gamma", (), "beta <= gamma", p.beta <= p.gamma),
        Claim("alpha < alpha_dag", (), "alpha < alpha_dag", p.alpha < p.alpha_dag),
        Claim("alpha_dag <= beta", (), "alpha_dag <= beta", p.alpha_dag <= p.beta),
        Claim("beta_dag < beta", (), "beta_dag < beta", p.beta_dag < p.beta),
        Claim(
            "alpha*gamma^(k-1) < beta^k",
            (),
            "alpha * gamma**(kappa-1) < beta**kappa",
            radical_compare(lhs, p.beta ** k) < 0,
        ),
        Claim(
            "alpha_dag < beta iff theta2 < theta3",
            (),
            "strictness of alpha_dag < beta matches theta2 < theta3",
            (radical_compare(p.alpha_dag, p.beta) < 0) == (p.theta2 < p.theta3),
        ),
        Claim(
            "dagger order matches theta comparison",
            (),
            "sign(alpha_dag - beta_dag) == sign(theta2^k - theta1*theta3^(k-1))",
            dag_cmp == -((t2_vs > 0) - (t2_vs < 0)),
        ),
    )
    return TheoremReport("endpoint ordering", claims, data={"params": p.to_dict()})


def _iota_s_star(theta1: Fraction, theta2: Fraction, theta3: Fraction) -> int:
    return 1 + floor_log_ratio(theta2 / theta1, theta3 / theta2)


def _iotas(theta1: Fraction, theta2: Fraction, theta3: Fraction) -> tuple[int, int]:
    iota_s = 1 + floor_log_ratio(theta3 / theta2, theta3 / theta1)
    return iota_s, _iota_s_star(theta1, theta2, theta3)


def iota_relations(theta1, theta2, theta3) -> TheoremReport:
    """The eight arithmetic relations between iota_s and iota_s_star."""
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    _validate_triple(theta1, theta2, theta3, strict=True)
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
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    _validate_triple(theta1, theta2, theta3, strict=True)
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
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    _validate_triple(theta1, theta2, theta3)
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
    alpha_dag_vals = [
        Radical(theta2 / theta3, theta3, k).approx(precision).to_fraction()
        for k in kappas
    ]
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
        beta_dag_vals = [
            Radical.root(theta1, k).approx(precision).to_fraction() for k in kappas
        ]
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


def _triples(mu: AtomicMeasure, kappa: int) -> list[dict]:
    """The to_dict() of the TripleParams of every hole of find_holes(mu),
    with theta3 = sup supp mu.

    Hole i is (x_{i-1}, x_i) over the support points x_0 < x_1 < ...
    (x_{-1} = 0), so alpha_i = alpha_dag_{i-1} and beta_dag_i = beta_{i-1}:
    each support point x gets one x**(1/kappa) radical and one
    (x/theta3) * theta3**(1/kappa) radical, shared by the two holes it
    bounds, and each distinct radical is rendered once.  Radicals compare by
    value, so the memo is keyed by their fields: equal values such as
    (1/2)*4**(1/2) and 1**(1/2) still print their own coeff and radicand.
    """
    points = mu.support
    theta3 = points[-1]
    roots = [Radical.root(x, kappa) for x in points]
    scaled = [Radical(x / theta3, theta3, kappa) for x in points]
    gamma, zero = roots[-1], Radical.zero(kappa)
    lows = [(Fraction(0), zero, zero), *zip(points, scaled, roots)]
    rendered: dict = {}

    def render(r: Radical) -> dict:
        key = (r.coeff, r.radicand, r.index)
        out = rendered.get(key)
        if out is None:
            out = rendered[key] = radical_to_dict(r)
        return out

    return [
        _triple(theta1, theta2, theta3, kappa, (alpha, beta, gamma, alpha_dag, beta_dag)).to_dict(render)
        for (theta1, alpha, beta_dag), theta2, beta, alpha_dag in zip(lows, points, roots, scaled)
    ]


def _as_radical(value, kappa: int) -> Radical:
    if isinstance(value, Radical):
        if value.index != kappa:
            raise UsageError(f"endpoint radical has index {value.index}, expected {kappa}")
        return value
    value = Fraction(value)
    if value < 0:
        raise UsageError("endpoints must be nonnegative")
    return Radical.zero(kappa) if value == 0 else Radical.from_rational(value, kappa)


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
    """
    mu, kappa, powers = pair.mu, pair.kappa, pair.powers
    alpha = _as_radical(alpha, kappa)
    beta = _as_radical(beta, kappa)
    gamma = Radical.root(powers[-1], kappa)
    data: dict = {}

    def preconditions(a: Radical, b: Radical):
        return (
            ("nu((alpha, beta)) == 0", not _some_inside(powers, a.power, b.power)),
            ("0 <= alpha < beta <= sup supp nu", a < b and b <= gamma),
            (
                "alpha*gamma^(kappa-1) < beta^kappa",
                radical_compare(a * gamma ** (kappa - 1), b ** kappa) < 0,
            ),
        )

    extra_claims: list[Claim] = []
    if canonicalize:
        original_ok = all(ok for _, ok in preconditions(alpha, beta))
        data["canonicalized_from"] = {"alpha": alpha, "beta": beta}
        below = bisect_right(powers, alpha.power)  # atoms <= alpha
        above = bisect_left(powers, beta.power)  # first atom >= beta
        alpha = Radical.root(powers[below - 1], kappa) if below else Radical.zero(kappa)
        beta = Radical.root(powers[above], kappa) if above < len(powers) else beta
        extra_claims.append(
            Claim(
                "canonicalization",
                (("original endpoints satisfy the preconditions", original_ok),),
                "snapped endpoints satisfy the preconditions as well",
                all(ok for _, ok in preconditions(alpha, beta)),
            )
        )

    hyps = preconditions(alpha, beta)
    applicable = all(ok for _, ok in hyps)

    t1 = alpha * gamma ** (kappa - 1)
    t2 = beta ** kappa
    t3 = gamma ** kappa
    data["theta1"], data["theta2"], data["theta3"] = t1, t2, t3

    if applicable:
        # supp mu against radical endpoints, through kappa-th powers
        def key(atom):
            return atom[0] ** kappa

        hole_ok = not _some_inside(mu.atoms, t1.power, t2.power, key)
        sup_ok = mu.max_point ** kappa == t3.power
        c1 = hole_ok and sup_ok
        c2 = _member(powers, alpha.power) == _member(mu.atoms, t1.power, key)
        c3 = _member(powers, beta.power) == _member(mu.atoms, t2.power, key)
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


def check_hole_backward(pair: RootPair, theta1, theta2) -> TheoremReport:
    """Candidate holes of supp nu induced by a hole (theta1, theta2) of supp mu,
    with theta3 = sup supp mu; theta2 > theta3 is allowed."""
    theta1, theta2 = _mu_hole(pair.mu, theta1, theta2)
    kappa, powers, theta3 = pair.kappa, pair.powers, pair.mu.max_point
    # the kappa-th powers of beta_dag, beta and gamma are theta1, theta2, theta3
    alpha_k = _scaled_power(theta1, theta3, kappa)
    alpha_dag_k = _scaled_power(theta2, theta3, kappa)

    upper_ok = theta2 <= theta3
    bd_vs_ad = (theta1 > alpha_dag_k) - (theta1 < alpha_dag_k)
    gba_small = theta3 * alpha_k / theta2 < alpha_dag_k  # ((gamma/beta)*alpha)**kappa
    beta_in_supp = _member(powers, theta2)

    concl_i = not _some_inside(powers, theta1, theta2)
    concl_ii = not _some_inside(powers, alpha_k, alpha_dag_k)
    concl_iii = not _some_inside(powers, alpha_k, theta2)

    hyp_upper = ("theta2 <= sup supp mu", upper_ok)
    cond_a = (
        bd_vs_ad < 0
        or (bd_vs_ad <= 0 and kappa >= 3)
        or (bd_vs_ad == 0 and beta_in_supp)
    )
    claims = (
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
            (hyp_upper, ("beta_dag <= alpha_dag", bd_vs_ad <= 0)),
            "(gamma/beta)*alpha < alpha_dag",
            gba_small,
        ),
    )
    return TheoremReport(
        "hole transfer mu->nu",
        claims,
        data={
            "theta3": theta3,
            "beta_in_support": beta_in_supp,
            "beta_dag_vs_alpha_dag": bd_vs_ad,
        },
    )


def check_iota_hole_criteria(pair: RootPair, theta1, theta2) -> TheoremReport:
    """iota-based sufficient conditions for (alpha, beta) being a nu-hole,
    for a hole (theta1, theta2) of supp mu with theta3 = sup supp mu."""
    theta1, theta2 = _mu_hole(pair.mu, theta1, theta2)
    kappa, powers, theta3 = pair.kappa, pair.powers, pair.mu.max_point
    if not (0 < theta1 and theta2 < theta3):
        return TheoremReport(
            "iota hole criteria",
            applicable=False,
            note="requires 0 < theta1 < theta2 < sup supp mu",
        )
    iota_s, iota_s_star = _iotas(theta1, theta2, theta3)
    beta_in_supp = _member(powers, theta2)
    conclusion = not _some_inside(powers, _scaled_power(theta1, theta3, kappa), theta2)
    in_supp = ("beta in supp nu", beta_in_supp)
    conditions = (
        ("(i)", (("kappa >= iota_s_star", kappa >= iota_s_star), in_supp)),
        ("(ii)", (("iota_s >= iota_s_star", iota_s >= iota_s_star), in_supp)),
        ("(iii)", (("iota_s >= 3", iota_s >= 3), in_supp)),
        ("(iv)", (("iota_s >= 4", iota_s >= 4),)),
        ("(v)", (("iota_s_star == 1", iota_s_star == 1),)),
    )
    claims = tuple(
        Claim(name, hyps, "nu((alpha, beta)) == 0", conclusion)
        for name, hyps in conditions
    )
    return TheoremReport(
        "iota hole criteria",
        claims,
        data={
            "iota_s": iota_s,
            "iota_s_star": iota_s_star,
            "beta_in_support": beta_in_supp,
            "conclusion": conclusion,
        },
    )


def check_top_of_support(pair: RootPair, theta1, theta2, theta3) -> TheoremReport:
    """Paired-hole and top-of-support transfer statements."""
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    _validate_triple(theta1, theta2, theta3)
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


def check_root_order_membership(mu: AtomicMeasure, theta1, theta2, kappa_max: int) -> TheoremReport:
    """Equivalence of theta2-membership across every working root order.

    J is the set of kappa in [2, kappa_max] whose root decision is
    CertifiedYes.  Requires iota_s_star = 1; reported as not applicable
    otherwise (and when J is empty).  mu is decided at the orders
    2..kappa_max only when iota_s_star = 1.
    """
    theta1, theta2 = _mu_hole(mu, theta1, theta2)
    if not 2 <= kappa_max <= 16:
        raise UsageError("kappa_max must be in [2, 16]")
    theta3 = mu.max_point
    if not (0 < theta1 and theta2 < theta3):
        return TheoremReport(
            "membership across root orders",
            applicable=False,
            note="requires 0 < theta1 < theta2 < sup supp mu",
        )
    iota_s_star = _iota_s_star(theta1, theta2, theta3)
    if iota_s_star != 1:
        return TheoremReport(
            "membership across root orders",
            applicable=False,
            note=f"requires iota_s_star == 1, got {iota_s_star}",
            data={"iota_s_star": iota_s_star},
        )
    decisions = {k: decide_root(mu, k) for k in range(2, kappa_max + 1)}
    working = {k: d for k, d in decisions.items() if d.is_yes}
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


def _order_scans(mu: AtomicMeasure, holes, kappa_max: int):
    """check_root_order_membership on each interior hole of holes, the Holes
    of find_holes(mu) (None on the others), and (hole, reason) per hole whose
    scan a guard refused.  A hole is interior when 0 < lower and upper <
    sup supp mu.  Only iota_s_star == 1 holes decide mu at the orders
    2..kappa_max, so a caller that skips a refused scan learns of it before
    any other check."""
    theta3 = mu.max_point
    scans, refused = [], []
    for hole in holes:
        report = None
        if 0 < hole.lower and hole.upper < theta3:
            try:
                report = check_root_order_membership(mu, hole.lower, hole.upper, kappa_max)
            except GuardExceeded as exc:
                refused.append((hole, str(exc)))
        scans.append(report)
    return scans, refused


def _walk_holes(pair: RootPair, holes, scans) -> list[TheoremReport]:
    """The reports of every hole of holes, in order: check_hole_backward,
    check_iota_hole_criteria and the hole's scan from _order_scans, if any.
    Each checker is entered by its public name, so a wrapper on it sees
    every hole."""
    reports = []
    for hole, scan in zip(holes, scans):
        reports.append(check_hole_backward(pair, hole.lower, hole.upper))
        reports.append(check_iota_hole_criteria(pair, hole.lower, hole.upper))
        if scan is not None:
            reports.append(scan)
    return reports
