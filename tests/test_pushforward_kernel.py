"""The integer-key pushforward kernel against a direct multiset enumeration.

decide_root, verify_representation, kappa_power_measure and product_support
all run on one incremental kernel (measures._push_atom).  The references
in oracles.py are the enumeration the kernel replaced: a depth-first search
over size-kappa multisets per peeled candidate, a second full search for
verification, and combinations_with_replacement for the kappa-fold power
and for the product support, all in Fraction arithmetic and with no
multiset guard.  Decisions must agree exactly: verdict, certificate kind
and location, and every NuEntry including the zero-rho ones.
"""

import itertools
from fractions import Fraction as F

import pytest

from momentroot import decide, measures
from momentroot.decide import Certificate, CertificateKind, decide_root, verify_representation
from momentroot.exact import GuardExceeded, Radical
from momentroot.generate import GenParams, pick_kappa, random_atomic_measure, stream
from momentroot.measures import AtomicMeasure, kappa_power_measure, product_support
from oracles import (
    ref_decide_root,
    ref_kappa_power_measure,
    ref_product_support,
    ref_verify_representation,
)


def outcome(fn, *args):
    """The result, or the exception type for a refusal."""
    try:
        return fn(*args)
    except GuardExceeded:
        return GuardExceeded


def assert_same_decision(mu, kappa):
    got = outcome(decide_root, mu, kappa)
    assert got == outcome(ref_decide_root, mu, kappa), (mu, kappa)
    return got


def perturbations(mu, nu, kappa):
    """mu itself plus scaled, dropped and injected copies of it."""
    masses = dict(mu.atoms)
    yield mu
    scaled = dict(masses)
    scaled[mu.max_point] *= 2
    yield AtomicMeasure.from_pairs(scaled.items())
    if len(masses) > 2:
        dropped = dict(masses)
        del dropped[mu.atoms[len(masses) // 2][0]]
        yield AtomicMeasure.from_pairs(dropped.items())
    injected = dict(masses)
    if len(nu.atoms) >= 3:
        t1, t2, t3 = nu.support[:3]
        fake = t1 * t3 / t2
        injected[fake ** kappa] = injected.get(fake ** kappa, 0) + mu.atoms[0][1]
        heavy = t1 ** (kappa - 1) * fake
        injected[heavy] = injected.get(heavy, 0) + 64 * sum(masses.values())
    else:
        pts = mu.support
        injected[(pts[0] + pts[1]) / 2 if len(pts) > 1 else 2 * pts[0]] = mu.atoms[0][1]
    yield AtomicMeasure.from_pairs(injected.items())


def test_three_atom_grid_matches_reference():
    thetas = [F(2) ** i for i in range(7)]
    yes = 0
    for t1, t2, t3 in itertools.combinations(thetas, 3):
        for a1, a2, a3 in itertools.product(range(1, 9), repeat=3):
            mu = AtomicMeasure(((t1, F(a1)), (t2, F(a2)), (t3, F(a3))))
            yes += assert_same_decision(mu, 2).is_yes
    assert yes > 0


@pytest.mark.parametrize("kappa", range(2, 9))
def test_generator_draws_and_perturbations_match_reference(kappa):
    params = GenParams(seed=kappa, max_atoms=4, kappa_set=tuple(range(2, 9)))
    decided = 0
    for index in range(24):
        nu = random_atomic_measure(params, index)
        mu = kappa_power_measure(nu, kappa)
        assert mu == ref_kappa_power_measure(nu, kappa)
        root = None
        for variant in perturbations(mu, nu, kappa):
            got = assert_same_decision(variant, kappa)
            decided += 1
            if root is None:
                assert got.is_yes
                root = got.nu
            assert verify_representation(variant, root) == ref_verify_representation(variant, root)
            if got.is_yes:
                assert verify_representation(variant, got.nu)
    assert decided > 0


def test_kappa_power_measure_matches_reference_on_drawn_kappas():
    params = GenParams(seed=11, max_atoms=6, kappa_set=tuple(range(2, 9)))
    for index in range(30):
        nu = random_atomic_measure(params, index)
        kappa = pick_kappa(params, stream(params, index))
        assert outcome(kappa_power_measure, nu, kappa) == outcome(ref_kappa_power_measure, nu, kappa)


def test_negative_rho_precedes_an_earlier_stray_product():
    # Peeling accepts the atoms at 4 and 9 (their keys are the squares of
    # the support points 2 and 3), so 4 * 9 = 36 is a product of positive
    # candidates that is not the square of a support point.  The later
    # candidate 36 has target 0 and earlier contribution 2, so its rho is
    # -1: the certificate is NEGATIVE_RHO, not COVERAGE_VIOLATION.
    mu = AtomicMeasure.from_pairs([(1, 1), (2, 2), (3, 2), (4, 1), (9, 1), (36, 1)])
    got = assert_same_decision(mu, 2)
    assert got.certificate == Certificate(CertificateKind.NEGATIVE_RHO, F(36))


# weights 1/2, 1/3, ..., 1/11 at the points 1..5: every accepted rho has a
# denominator coprime to those before it, so the running denominator of the
# peeling maps grows at each accepted candidate
COPRIME_NU = AtomicMeasure.from_pairs((n, F(1, p)) for n, p in zip(range(1, 6), (2, 3, 5, 7, 11)))


@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_coprime_rho_denominators_match_reference(kappa):
    mu = kappa_power_measure(COPRIME_NU, kappa)
    root = None
    kinds = set()
    for variant in perturbations(mu, COPRIME_NU, kappa):
        got = assert_same_decision(variant, kappa)
        root = root or got.nu
        kinds.add(got.verdict if got.is_yes else got.certificate.kind)
        assert verify_representation(variant, root) == ref_verify_representation(variant, root)
    assert [e.rho.denominator for e in root.positive_entries()] == [1, 3, 5, 7, 11]
    assert root.to_atomic_measure() == COPRIME_NU
    assert len(kinds) >= 2  # a yes and at least one kind of no


def test_kernel_receives_only_int_weights(monkeypatch):
    seen = []
    push = measures._push_atom

    def spy(maps, num, weight):
        seen.append(type(weight))
        push(maps, num, weight)

    monkeypatch.setattr(measures, "_push_atom", spy)
    monkeypatch.setattr(decide, "_push_atom", spy)
    kappa = 3
    mu = kappa_power_measure(COPRIME_NU, kappa)
    for variant in perturbations(mu, COPRIME_NU, kappa):
        got = decide_root(variant, kappa)
        if got.is_yes:
            assert verify_representation(variant, got.nu)
    assert len(seen) > 3 * len(COPRIME_NU.atoms)
    assert set(seen) == {int}


def test_from_pairs_shares_the_fractions_it_is_given():
    mu = kappa_power_measure(COPRIME_NU, 2)
    copy = AtomicMeasure.from_pairs(reversed(mu.atoms))
    assert copy == mu
    for (p, w), (q, v) in zip(copy.atoms, mu.atoms):
        assert p is q and w is v


def fields(radicals):
    return [(r.coeff, r.radicand, r.index) for r in radicals]


@pytest.mark.parametrize(
    "points,kappa",
    [
        ([F(1, 5), F(1), F(2)], 3),
        ([F(1, 2 ** 33), F(1), F(8)], 4),
        ([F(3), F(3, 2), F(3), F(1, 7)], 2),  # a duplicate
        ([Radical.root(2, 2), Radical.root(8, 2), Radical.root(3, 2)], 3),
        ([Radical.root(F(1, 3), 5), Radical.root(7, 5), Radical.root(7, 5)], 4),
        ([F(2), Radical.from_rational(3, 1), F(5, 3)], 3),  # mixed, index 1
    ],
)
def test_product_support_matches_reference(points, kappa):
    got = product_support(points, kappa)
    assert fields(got) == fields(ref_product_support(points, kappa))


def test_product_support_returns_roots_of_powers():
    # a rational promoted to index 2 has coeff 3, not 1: its products keep
    # their values and are returned as square roots of their squares
    points = [F(3), Radical.root(2, 2)]
    got = product_support(points, 2)
    assert got == ref_product_support(points, 2)
    assert fields(got) == [(1, 4, 2), (1, 18, 2), (1, 81, 2)]
    assert fields(ref_product_support(points, 2)) == [(1, 4, 2), (3, 2, 2), (9, 1, 2)]
    # at index 1 every product is returned as a rational
    points = [Radical.root(3, 1), F(2)]
    got = product_support(points, 2)
    assert got == ref_product_support(points, 2)
    assert fields(got) == [(4, 1, 1), (6, 1, 1), (9, 1, 1)]
    assert fields(ref_product_support(points, 2)) == [(4, 1, 1), (2, 3, 1), (1, 9, 1)]
