"""Certified decision procedure for taking the kappa-th root of the moment
sequence of a finitely atomic measure.

Given mu with support x_1 < ... < x_M, the only possible atoms of a root
measure nu are the candidates t_j = x_j**(1/kappa) (the root measure of a
compactly supported sequence is unique, and its support is contained in
the kappa-th roots of supp mu).  Writing the candidate weights as
w_j = w_1 * rho_j with rho_1 = 1 makes every quantity in the decision
rational even though the w_j themselves are usually irrational: products
of kappa candidate atoms are compared through their kappa-th powers, and
masses factor through w_1**kappa = mu({x_1}).

Peeling runs in ascending candidate order.  At step j the key
K_j = x_1**(kappa-1) * x_j is the smallest product a multiset containing
t_j can reach, and the only size-kappa multiset with that product whose
largest member is t_j is {t_j, t_1, ..., t_1}: any multiset with a member
above t_j already has a strictly larger product, so every other multiset
hitting K_j uses indices below j.  This forces

    rho_j = (target/mu({x_1}) - S_j) / kappa,

with target the mu-mass at the point y with y**kappa = K_j (zero if there
is no such support point) and S_j the already-known contribution of
earlier candidates.  A negative rho_j refutes existence outright; zero
means the candidate is absent.

One pushforward kernel (measures._push_atom) carries the work, and every
value it holds is an int.  Support points are written c_j/L over their
common denominator L, so every product key is an int, and the accepted
weights are written r_j/D over a running common denominator D, so every
weight pushed is an int.  The degree map P_d sends a product of d positive
candidates to D**d times the sum of multinomial(counts) * prod(rho**count)
over the multisets reaching it.  The maps are updated in place each time a
candidate is accepted, so S_j is one lookup of K_j in P_kappa, and the
numerator of rho_j over one denominator is a single integer expression
whose sign decides the step; only a positive rho_j is built as a Fraction.
When its denominator does not divide D, D is multiplied by the missing
factor f and every P_d by f**d.  After peeling, verification walks the
finished P_kappa (every product of the positive candidates) in ascending
order, compares each key with mu exactly by cross-multiplying integers,
then checks that every support point was reached (the comparison that
verify_representation shares), so a CertifiedYes is self-checking rather
than a consequence of trusting the peeling argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import UsageError, bigfloat_root, perfect_nth_root
from .measures import (
    AtomicMeasure,
    MAX_MULTISETS,
    _check_kappa,
    _degree_maps,
    _multiset_guard,
    _numerators,
    _push_atom,
)

__all__ = [
    "Verdict",
    "CertificateKind",
    "Certificate",
    "NuEntry",
    "NuRepresentation",
    "RootDecision",
    "decide_root",
    "verify_representation",
    "approx_root_moments",
]

_ZERO = Fraction(0)  # the rho of every absent candidate


class Verdict(enum.Enum):
    CERTIFIED_YES = "certified_yes"
    CERTIFIED_NO = "certified_no"


class CertificateKind(enum.Enum):
    NEGATIVE_RHO = "negative_rho"
    MASS_MISMATCH = "mass_mismatch"
    COVERAGE_VIOLATION = "coverage_violation"


@dataclass(frozen=True)
class Certificate:
    """Why no root measure exists.

    location is the mu-support point whose peeled weight went negative
    (NEGATIVE_RHO), the support point whose mass is not reproduced
    (MASS_MISMATCH), or the stray product key, i.e. the kappa-th power of
    the offending product of candidate atoms (COVERAGE_VIOLATION).
    """

    kind: CertificateKind
    location: Fraction


@dataclass(frozen=True)
class NuEntry:
    power: Fraction  # the atom t = power**(1/kappa), stored by its power
    rho: Fraction    # weight of t relative to the smallest atom's weight


@dataclass(frozen=True)
class NuRepresentation:
    """nu = base_mass**(1/kappa) * sum_j rho_j * delta(power_j**(1/kappa)).

    base_mass is mu({min supp mu}); the entry at the minimal power always
    has rho = 1, and zero-rho entries are kept to record that a candidate
    was considered and found absent.
    """

    base_mass: Fraction
    entries: tuple[NuEntry, ...]
    kappa: int

    def positive_entries(self) -> tuple[NuEntry, ...]:
        return tuple(e for e in self.entries if e.rho > 0)

    def positive_powers(self) -> tuple[Fraction, ...]:
        return tuple(e.power for e in self.entries if e.rho > 0)

    def support_size(self) -> int:
        return sum(1 for e in self.entries if e.rho > 0)

    def to_atomic_measure(self) -> Optional[AtomicMeasure]:
        """Exact rational form of nu, when it has one."""
        w1 = perfect_nth_root(self.base_mass, self.kappa)
        if w1 is None:
            return None
        pairs = []
        for e in self.positive_entries():
            atom = perfect_nth_root(e.power, self.kappa)
            if atom is None:
                return None
            pairs.append((atom, w1 * e.rho))
        return AtomicMeasure.from_pairs(pairs)


@dataclass(frozen=True)
class RootDecision:
    verdict: Verdict
    kappa: int
    nu: Optional[NuRepresentation] = None
    certificate: Optional[Certificate] = None

    def __post_init__(self):
        if (self.verdict is Verdict.CERTIFIED_YES) != (self.nu is not None):
            raise UsageError("a yes-decision carries exactly a representation")
        if (self.verdict is Verdict.CERTIFIED_NO) != (self.certificate is not None):
            raise UsageError("a no-decision carries exactly a certificate")

    @property
    def is_yes(self) -> bool:
        return self.verdict is Verdict.CERTIFIED_YES


def decide_root(mu: AtomicMeasure, kappa: int) -> RootDecision:
    """Decide whether the kappa-th root of mu's moment sequence is again a
    Stieltjes moment sequence, with an exact certificate either way.

    Raises GuardExceeded when the positive candidates, the only ones
    pushed forward, have more than MAX_MULTISETS size-kappa multisets.
    """
    _check_kappa(kappa)
    m_count = len(mu.atoms)
    xs = mu.support
    base_mass = mu.atoms[0][1]
    den = math.lcm(*(x.denominator for x in xs))
    nums = _numerators(xs, den)
    # the kappa-th power of each support point, as a degree-kappa key
    atom_at = {c ** kappa: atom for c, atom in zip(nums, mu.atoms)}

    # ascending peeling; only positive candidates enter the pushforward.
    # maps[d][key] stands for maps[d][key] / D**d, where D is the common
    # denominator of the rhos pushed so far and scale = D**kappa; then
    # rho = (target/base_mass - produced/scale) / kappa = num/(td*bn*scale*kappa).
    bn, bd = base_mass.numerator, base_mass.denominator
    rhos: list[Fraction] = [Fraction(1)]
    maps = _degree_maps(kappa, [(nums[0], 1)])
    produced = maps[kappa]
    x1_pow = nums[0] ** (kappa - 1)
    rho_den = scale = 1
    for j in range(1, m_count):
        key = x1_pow * nums[j]
        atom = atom_at.get(key)
        tn, td = (atom[1].numerator, atom[1].denominator) if atom is not None else (0, 1)
        num = tn * bd * scale - bn * produced.get(key, 0) * td
        if num < 0:
            return RootDecision(
                Verdict.CERTIFIED_NO,
                kappa,
                certificate=Certificate(CertificateKind.NEGATIVE_RHO, xs[j]),
            )
        if num == 0:
            rhos.append(_ZERO)
            continue
        rho = Fraction(num, td * bn * scale * kappa)
        rhos.append(rho)
        # maps[1] holds one key per atom pushed so far
        _multiset_guard(len(maps[1]) + 1, kappa, MAX_MULTISETS)
        f = rho.denominator // math.gcd(rho.denominator, rho_den)
        if f != 1:
            rho_den *= f
            scale = rho_den ** kappa
            for d in range(1, kappa + 1):
                fd, m = f ** d, maps[d]
                for k, v in m.items():
                    m[k] = v * fd
        _push_atom(maps, nums[j], rho.numerator * (rho_den // rho.denominator))

    # full verification: every product of the positive candidates against mu
    certificate = _mismatch(produced, atom_at, bn, bd * scale, den, kappa)
    if certificate is not None:
        return RootDecision(Verdict.CERTIFIED_NO, kappa, certificate=certificate)

    nu = NuRepresentation(
        base_mass=base_mass,
        entries=tuple(NuEntry(x, r) for x, r in zip(xs, rhos)),
        kappa=kappa,
    )
    return RootDecision(Verdict.CERTIFIED_YES, kappa, nu=nu)


def _mismatch(produced: dict, atom_at: dict, bn: int, bd: int, den: int, kappa: int) -> Optional[Certificate]:
    """The first certificate that a finished pushforward misses mu, or None.

    produced sends each product key (over den**kappa) to an int standing for
    mass bn * value / bd, and atom_at sends the key of each support point to
    its mu-atom.  In ascending key order a stray key is a COVERAGE_VIOLATION
    and a wrong mass a MASS_MISMATCH; then an unreached point is a MASS_MISMATCH.
    """
    for key in sorted(produced):
        atom = atom_at.get(key)
        if atom is None:
            return Certificate(CertificateKind.COVERAGE_VIOLATION, Fraction(key, den ** kappa))
        w = atom[1]
        if bn * produced[key] * w.denominator != w.numerator * bd:
            return Certificate(CertificateKind.MASS_MISMATCH, atom[0])
    for key, (x, _) in atom_at.items():
        if key not in produced:
            return Certificate(CertificateKind.MASS_MISMATCH, x)
    return None


def verify_representation(mu: AtomicMeasure, nu: NuRepresentation) -> bool:
    """Check that nu's kappa-fold pushforward reproduces mu exactly.

    It builds the pushforward with the same kernel as decide_root, on int
    weights: the rhos are cleared of denominators over their lcm R, so the
    value at a degree-kappa key stands for that value / R**kappa.  The test
    suite checks that kernel against an independent multiset enumeration.
    """
    positives = nu.positive_entries()
    if not positives:
        return False
    kappa = nu.kappa
    _multiset_guard(len(positives), kappa, MAX_MULTISETS)
    powers, rhos = [e.power for e in positives], [e.rho for e in positives]
    den = math.lcm(*(p.denominator for p in powers + list(mu.support)))
    rho_den = math.lcm(*(r.denominator for r in rhos))
    produced = _degree_maps(kappa, zip(_numerators(powers, den), _numerators(rhos, rho_den)))[kappa]
    atom_at = {c ** kappa: atom for c, atom in zip(_numerators(mu.support, den), mu.atoms)}
    bn, bd = nu.base_mass.numerator, nu.base_mass.denominator * rho_den ** kappa
    return _mismatch(produced, atom_at, bn, bd, den, kappa) is None


def approx_root_moments(
    decision: RootDecision, n: int, precision: int = 256
) -> Fraction:
    """Dyadic approximation of the n-th root moment b_n = a_n**(1/kappa).

    b_n = sum_j rho_j * (base_mass * power_j**n)**(1/kappa); each term is
    approximated to precision plus guard bits and the exact dyadic sum is
    rounded once at the end to a precision-bit mantissa, so the result is
    within one ulp (and exact whenever every term is rational and
    representable).
    """
    if not decision.is_yes:
        raise UsageError("approx_root_moments needs a CertifiedYes decision")
    if n < 0:
        raise UsageError("moment order must be >= 0")
    nu = decision.nu
    terms = nu.positive_entries()
    guard = max(len(terms).bit_length() + 2, 4)
    total = Fraction(0)
    for e in terms:
        term_power = e.rho ** nu.kappa * nu.base_mass * e.power ** n
        total += bigfloat_root(term_power, nu.kappa, precision + guard)
    return bigfloat_root(total, 1, precision)
