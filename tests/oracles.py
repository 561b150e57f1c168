"""Reference implementations that the tests compare the library against.

None of this is read by a verdict.  The moment and Hankel oracles give an
independent consistency check of root decisions; the ref_* functions are
the direct multiset enumerations the pushforward kernel replaced, in
Fraction arithmetic and with no multiset guard; radical_product,
radical_quotient and radical_compare are same-index radical arithmetic,
which the library does only on kappa-th powers; ref_decimal is the
Fraction decimal rendering that exact._decimal_str does on integers;
ref_iotas, ref_hole_backward and ref_iota_hole_criteria are the iota
parameters and the two mu->nu hole checkers in Fraction arithmetic, with
linear scans where the library bisects integers.
The *_dict functions build the JSON forms the CLI prints as dicts, field
by field, for the tests to compare the library's text writers against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional

from momentroot.decide import (
    Certificate,
    CertificateKind,
    NuEntry,
    NuRepresentation,
    RootDecision,
    Verdict,
)
from momentroot.exact import GuardExceeded, Radical, UsageError, bigfloat_root, format_rational
from momentroot.holes import Claim, TheoremReport, TripleParams
from momentroot.measures import MAX_MULTISETS, AtomicMeasure, _multiset_guard

MAX_HORIZON = 10 ** 4


# ---------------------------------------------------------------------------
# radicals of one index
# ---------------------------------------------------------------------------


def radical_product(a: Radical, b: Radical) -> Radical:
    """a * b, field by field."""
    assert a.index == b.index
    return Radical(a.coeff * b.coeff, a.radicand * b.radicand, a.index)


def radical_quotient(a: Radical, b: Radical) -> Radical:
    """a / b for b != 0, field by field."""
    assert a.index == b.index and not b.is_zero()
    return Radical(a.coeff / b.coeff, a.radicand / b.radicand, a.index)


def radical_compare(a: Radical, b: Radical) -> int:
    """-1, 0 or +1 as a <, ==, > b, through index-th powers."""
    assert a.index == b.index
    return (a.power > b.power) - (a.power < b.power)


def ref_decimal(q: Fraction, digits: int) -> str:
    """q to the given number of significant digits, rounded half up, in
    Fraction arithmetic: "d.ddd" forms for 10**-4 <= |q| < 10**digits, else
    "d.ddde<exp>", with trailing zeros and a bare point dropped."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    q = abs(q)
    # decimal exponent e10 with 10**e10 <= q < 10**(e10+1)
    e10 = len(str(q.numerator)) - len(str(q.denominator))
    while Fraction(10) ** e10 > q:
        e10 -= 1
    while Fraction(10) ** (e10 + 1) <= q:
        e10 += 1
    scaled = q * Fraction(10) ** (digits - 1 - e10)
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - n * scaled.denominator) >= scaled.denominator:
        n += 1
    s = str(n)
    if len(s) > digits:  # rounding carried into a new digit
        e10 += 1
        s = s[:digits]
    if -4 <= e10 < digits:
        if e10 >= 0:
            intpart = s[: e10 + 1]
            fracpart = s[e10 + 1 :].rstrip("0")
            return sign + intpart + ("." + fracpart if fracpart else "")
        return sign + ("0." + "0" * (-e10 - 1) + s).rstrip("0")
    fracpart = s[1:].rstrip("0")
    mant = s[0] + ("." + fracpart if fracpart else "")
    return f"{sign}{mant}e{e10}"


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


APPROX_BITS = 64


def radical_dict(r: Radical) -> dict:
    """coeff, radicand, index and the exact value as rational strings, or
    rational None and a 19-digit decimal of the 64-bit approximation."""
    exact = r.to_rational()
    out = {
        "coeff": format_rational(r.coeff),
        "radicand": format_rational(r.radicand),
        "index": r.index,
        "rational": None if exact is None else format_rational(exact),
    }
    if exact is None:
        approx = bigfloat_root(r.power, r.index, APPROX_BITS)
        out["approx"] = {"decimal": ref_decimal(approx, 19), "precision_bits": APPROX_BITS}
    return out


def triple_dict(p: TripleParams) -> dict:
    return {
        "theta1": format_rational(p.theta1),
        "theta2": format_rational(p.theta2),
        "theta3": format_rational(p.theta3),
        "kappa": p.kappa,
        "alpha": radical_dict(p.alpha),
        "beta": radical_dict(p.beta),
        "gamma": radical_dict(p.gamma),
        "alpha_dag": radical_dict(p.alpha_dag),
        "beta_dag": radical_dict(p.beta_dag),
        "iota_s": p.iota_s,
        "iota_s_star": p.iota_s_star,
    }


def json_value(v):
    """A report's data value: rationals become strings, radicals and
    TripleParams dicts, dict keys strings, tuples lists."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, Radical):
        return radical_dict(v)
    if isinstance(v, TripleParams):
        return triple_dict(v)
    if isinstance(v, dict):
        return {k if isinstance(k, str) else str(k): json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_value(x) for x in v]
    return v


def claim_dict(c: Claim) -> dict:
    return {
        "name": c.name,
        "hypotheses": [{"name": n, "holds": h} for n, h in c.hypotheses],
        "conclusion": c.conclusion,
        "holds": c.holds,
        "approximate": c.approximate,
    }


def report_dict(r: TheoremReport) -> dict:
    out = {
        "theorem": r.theorem,
        "applicable": r.applicable,
        "claims": [claim_dict(c) for c in r.claims],
        "violations": [c.name for c in r.claims if c.holds is False and all(ok for _, ok in c.hypotheses)],
    }
    if r.note:
        out["note"] = r.note
    if r.data:
        out["data"] = {k: json_value(v) for k, v in r.data.items()}
    return out


def measure_dict(m: AtomicMeasure) -> dict:
    return {"atoms": [{"point": format_rational(p), "weight": format_rational(w)} for p, w in m.atoms]}


def decision_dict(d: RootDecision) -> dict:
    out = {"status": d.verdict.value, "kappa": d.kappa}
    if d.nu is not None:
        out["nu"] = {
            "base_mass": format_rational(d.nu.base_mass),
            "entries": [{"power": format_rational(e.power), "rho": format_rational(e.rho)} for e in d.nu.entries],
        }
    if d.certificate is not None:
        out["certificate"] = {"kind": d.certificate.kind.value, "location": format_rational(d.certificate.location)}
    return out


# ---------------------------------------------------------------------------
# the iota parameters and the mu->nu hole checkers, in Fraction arithmetic
# ---------------------------------------------------------------------------


def ref_floor_log(base: Fraction, target: Fraction) -> int:
    """The largest m >= 0 with base**m <= target, for base > 1, by powering."""
    m, power = 0, base
    while power <= target:
        m, power = m + 1, power * base
    return m


def ref_iotas(theta1, theta2, theta3) -> tuple[int, int]:
    """(iota_s, iota_s_star) of 0 < theta1 < theta2 < theta3."""
    theta1, theta2, theta3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    return (
        1 + ref_floor_log(theta3 / theta2, theta3 / theta1),
        1 + ref_floor_log(theta2 / theta1, theta3 / theta2),
    )


def _ref_mu_hole(mu: AtomicMeasure, theta1, theta2) -> tuple[Fraction, Fraction]:
    theta1, theta2 = Fraction(theta1), Fraction(theta2)
    if not 0 <= theta1 < theta2:
        raise UsageError("need 0 <= theta1 < theta2")
    if mass_open(mu, theta1, theta2):
        raise UsageError("(theta1, theta2) is not a hole of supp mu")
    return theta1, theta2


def _none_inside(values, lo, hi) -> bool:
    return not any(lo < v < hi for v in values)


def ref_hole_backward(pair, theta1, theta2) -> TheoremReport:
    """check_hole_backward: every decision on the kappa-th powers of the
    endpoints, alpha**kappa = theta1**kappa / theta3**(kappa-1) and
    alpha_dag**kappa = theta2**kappa / theta3**(kappa-1), as Fractions."""
    theta1, theta2 = _ref_mu_hole(pair.mu, theta1, theta2)
    kappa, powers, theta3 = pair.kappa, pair.powers, pair.mu.max_point
    alpha_k = theta1 ** kappa / theta3 ** (kappa - 1)
    alpha_dag_k = theta2 ** kappa / theta3 ** (kappa - 1)
    upper_ok = theta2 <= theta3
    bd_vs_ad = (theta1 > alpha_dag_k) - (theta1 < alpha_dag_k)
    gba_small = theta3 * alpha_k / theta2 < alpha_dag_k
    beta_in_supp = theta2 in powers
    concl_iii = _none_inside(powers, alpha_k, theta2)
    hyp_upper = ("theta2 <= sup supp mu", upper_ok)
    cond_a = bd_vs_ad < 0 or (bd_vs_ad <= 0 and kappa >= 3) or (bd_vs_ad == 0 and beta_in_supp)
    claims = (
        Claim("(i)", (), "nu((beta_dag, beta)) == 0", _none_inside(powers, theta1, theta2)),
        Claim("(ii)", (hyp_upper,), "nu((alpha, alpha_dag)) == 0", _none_inside(powers, alpha_k, alpha_dag_k)),
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
            (hyp_upper, ("(gamma/beta)*alpha < alpha_dag", gba_small), ("beta in supp nu", beta_in_supp)),
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
    data = {"theta3": theta3, "beta_in_support": beta_in_supp, "beta_dag_vs_alpha_dag": bd_vs_ad}
    return TheoremReport("hole transfer mu->nu", claims, data=data)


def ref_iota_hole_criteria(pair, theta1, theta2) -> TheoremReport:
    """check_iota_hole_criteria, in Fractions as ref_hole_backward."""
    theta1, theta2 = _ref_mu_hole(pair.mu, theta1, theta2)
    kappa, powers, theta3 = pair.kappa, pair.powers, pair.mu.max_point
    if not (0 < theta1 and theta2 < theta3):
        return TheoremReport(
            "iota hole criteria", applicable=False, note="requires 0 < theta1 < theta2 < sup supp mu"
        )
    iota_s, iota_s_star = ref_iotas(theta1, theta2, theta3)
    beta_in_supp = theta2 in powers
    conclusion = _none_inside(powers, theta1 ** kappa / theta3 ** (kappa - 1), theta2)
    in_supp = ("beta in supp nu", beta_in_supp)
    conditions = (
        ("(i)", (("kappa >= iota_s_star", kappa >= iota_s_star), in_supp)),
        ("(ii)", (("iota_s >= iota_s_star", iota_s >= iota_s_star), in_supp)),
        ("(iii)", (("iota_s >= 3", iota_s >= 3), in_supp)),
        ("(iv)", (("iota_s >= 4", iota_s >= 4),)),
        ("(v)", (("iota_s_star == 1", iota_s_star == 1),)),
    )
    claims = tuple(Claim(name, hyps, "nu((alpha, beta)) == 0", conclusion) for name, hyps in conditions)
    data = {"iota_s": iota_s, "iota_s_star": iota_s_star, "beta_in_support": beta_in_supp, "conclusion": conclusion}
    return TheoremReport("iota hole criteria", claims, data=data)


# ---------------------------------------------------------------------------
# measures: open-interval mass, scaling, moments
# ---------------------------------------------------------------------------


def mass_open(m: AtomicMeasure, lo, hi) -> Fraction:
    """Mass of the open interval (lo, hi) with rational endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    return sum((w for p, w in m.atoms if lo < p < hi), Fraction(0))


def scale_weights(m: AtomicMeasure, c) -> AtomicMeasure:
    c = Fraction(c)
    if c <= 0:
        raise UsageError("weight scaling must be positive")
    return AtomicMeasure(tuple((p, c * w) for p, w in m.atoms))


def dilate(m: AtomicMeasure, s) -> AtomicMeasure:
    s = Fraction(s)
    if s <= 0:
        raise UsageError("dilation factor must be positive")
    return AtomicMeasure(tuple((s * p, w) for p, w in m.atoms))


def moments(m: AtomicMeasure, horizon: int) -> tuple[Fraction, ...]:
    """Exact moments a_n = sum_i w_i * p_i**n for n = 0..horizon."""
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if horizon > MAX_HORIZON:
        raise GuardExceeded(f"horizon {horizon} exceeds guard {MAX_HORIZON}")
    values = []
    powers = [Fraction(1)] * len(m.atoms)
    for _ in range(horizon + 1):
        values.append(sum((w * pw for (_, w), pw in zip(m.atoms, powers)), Fraction(0)))
        powers = [pw * p for (p, _), pw in zip(m.atoms, powers)]
    return tuple(values)


# ---------------------------------------------------------------------------
# Hankel positivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HankelWitness:
    """A principal submatrix with negative determinant.

    offset selects the Hankel matrix (0 for entries a_{i+j}, 1 for
    a_{i+j+1}); indices are its violating row/column indices.
    """

    offset: int
    indices: tuple[int, ...]
    determinant: Fraction


@dataclass(frozen=True)
class HankelVerdict:
    consistent: bool
    witness: Optional[HankelWitness] = None


def hankel_matrix(values, offset: int, size: int) -> list[list[Fraction]]:
    values = list(values)
    return [
        [Fraction(values[i + j + offset]) for j in range(size)] for i in range(size)
    ]


def _psd_violation(matrix) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """None if the symmetric rational matrix is PSD; otherwise indices of a
    principal submatrix with negative determinant, plus that determinant.

    Recursive Schur complementation with the zero-pivot rule: a zero
    diagonal pivot must have an all-zero row, else the matrix is not PSD.
    """
    work = [row[:] for row in matrix]
    active = list(range(len(matrix)))
    done: list[tuple[int, Fraction]] = []  # (original index, positive pivot)
    while work:
        d = work[0][0]
        if d < 0:
            det = math.prod((p for _, p in done), start=Fraction(1)) * d
            return tuple(i for i, _ in done) + (active[0],), det
        if d == 0:
            for j in range(1, len(work)):
                c = work[0][j]
                if c != 0:
                    det = math.prod((p for _, p in done), start=Fraction(1)) * (-c * c)
                    return (
                        tuple(i for i, _ in done) + (active[0], active[j]),
                        det,
                    )
            work = [row[1:] for row in work[1:]]
            active = active[1:]
            continue
        done.append((active[0], d))
        top = work[0]
        work = [
            [work[i][j] - top[i] * top[j] / d for j in range(1, len(work))]
            for i in range(1, len(work))
        ]
        active = active[1:]
    return None


def hankel_consistency(prefix) -> HankelVerdict:
    """Exact PSD test of both Hankel matrices built from a moment prefix.

    Consistent iff H0 = (a_{i+j}) and H1 = (a_{i+j+1}), at the largest
    sizes the prefix supports, are both positive semidefinite.  This is
    the standard necessary condition for a Stieltjes prefix and serves as
    an independent consistency oracle.
    """
    values = list(prefix)
    if not values:
        raise UsageError("hankel_consistency needs a nonempty prefix")
    top = len(values) - 1
    for offset in (0, 1):
        size = (top - offset) // 2 + 1
        if size < 1:
            continue
        violation = _psd_violation(hankel_matrix(values, offset, size))
        if violation is not None:
            indices, det = violation
            return HankelVerdict(False, HankelWitness(offset, indices, det))
    return HankelVerdict(True)


# ---------------------------------------------------------------------------
# direct multiset enumerations
# ---------------------------------------------------------------------------


def ref_key_contribution(positives, kappa, key):
    n = len(positives)
    fact = math.factorial
    total = Fraction(0)

    def rec(i, slots, prod, coeff):
        nonlocal total
        if slots == 0:
            if prod == key:
                total += coeff
            return
        if i == n:
            return
        if prod * positives[i][0] ** slots > key:
            return
        if prod * positives[-1][0] ** slots < key:
            return
        x, rho = positives[i]
        c, p, co = 0, prod, coeff
        while c <= slots:
            rec(i + 1, slots - c, p, co)
            c += 1
            p *= x
            co = co * rho / c

    rec(0, kappa, Fraction(1), Fraction(fact(kappa)))
    return total


def ref_pushforward_map(positives, kappa):
    n = len(positives)
    fact = math.factorial
    out = {}

    def rec(i, slots, prod, coeff):
        if slots == 0:
            out[prod] = out.get(prod, Fraction(0)) + coeff
            return
        if i == n - 1:
            x, rho = positives[i]
            key = prod * x ** slots
            out[key] = out.get(key, Fraction(0)) + coeff * rho ** slots / fact(slots)
            return
        x, rho = positives[i]
        c, p, co = 0, prod, coeff
        while c <= slots:
            rec(i + 1, slots - c, p, co)
            c += 1
            p *= x
            co = co * rho / c

    rec(0, kappa, Fraction(1), Fraction(fact(kappa)))
    return out


def ref_decide_root(mu, kappa):
    m_count = len(mu.atoms)
    xs = mu.support
    masses = dict(mu.atoms)
    base_mass = masses[xs[0]]
    power_to_point = {x ** kappa: x for x in xs}

    def no(kind, location):
        return RootDecision(Verdict.CERTIFIED_NO, kappa, certificate=Certificate(kind, location))

    rhos = [Fraction(1)]
    positives = [(xs[0], Fraction(1))]
    x1_pow = xs[0] ** (kappa - 1)
    for j in range(1, m_count):
        key = x1_pow * xs[j]
        earlier = ref_key_contribution(positives, kappa, key)
        point = power_to_point.get(key)
        target = masses[point] if point is not None else Fraction(0)
        rho = (target / base_mass - earlier) / kappa
        if rho < 0:
            return no(CertificateKind.NEGATIVE_RHO, xs[j])
        rhos.append(rho)
        if rho > 0:
            positives.append((xs[j], rho))

    produced = ref_pushforward_map(positives, kappa)
    for key, value in sorted(produced.items()):
        point = power_to_point.get(key)
        if point is None:
            if value != 0:
                return no(CertificateKind.COVERAGE_VIOLATION, key)
            continue
        if base_mass * value != masses[point]:
            return no(CertificateKind.MASS_MISMATCH, point)
    for x in xs:
        if x ** kappa not in produced and masses[x] != 0:
            return no(CertificateKind.MASS_MISMATCH, x)
    nu = NuRepresentation(base_mass, tuple(NuEntry(x, r) for x, r in zip(xs, rhos)), kappa)
    return RootDecision(Verdict.CERTIFIED_YES, kappa, nu=nu)


def ref_verify_representation(mu, nu):
    positives = [(e.power, e.rho) for e in nu.positive_entries()]
    if not positives:
        return False
    produced = ref_pushforward_map(positives, nu.kappa)
    expected = {x ** nu.kappa: w for x, w in mu.atoms}
    return {k: nu.base_mass * v for k, v in produced.items() if v != 0} == expected


def ref_kappa_power_measure(nu, kappa):
    _multiset_guard(len(nu.atoms), kappa, MAX_MULTISETS)
    fact = math.factorial
    acc = {}
    for combo in combinations_with_replacement(range(len(nu.atoms)), kappa):
        point, weight, run = Fraction(1), Fraction(fact(kappa)), 1
        for i, j in zip(combo, combo[1:] + (None,)):
            p, w = nu.atoms[i]
            point *= p
            weight *= w
            if j == i:
                run += 1
            else:
                weight /= fact(run)
                run = 1
        acc[point] = acc.get(point, Fraction(0)) + weight
    return AtomicMeasure.from_pairs(acc.items())


def ref_product_support(points, kappa):
    """Every size-kappa product of the points as a Radical at their common
    index, deduplicated through index-th powers; the first product reached
    represents its power."""
    index = next((p.index for p in points if isinstance(p, Radical)), 1)
    rads = [p if isinstance(p, Radical) else Radical.from_rational(p, index) for p in points]
    seen = {}
    for combo in combinations_with_replacement(rads, kappa):
        prod = combo[0]
        for r in combo[1:]:
            prod = radical_product(prod, r)
        seen.setdefault(prod.power, prod)
    return tuple(seen[k] for k in sorted(seen))
