"""Parametrized families behind the worked instances: the fixture values
pin one member of each family, these sweep several rational parameter
choices through the same claims."""

from fractions import Fraction as F

import pytest

from momentroot.decide import decide_root
from momentroot.holes import (
    RootPair,
    check_hole_backward,
    check_hole_forward,
    check_root_order_membership,
    triple_params,
)
from momentroot.measures import AtomicMeasure, find_holes, kappa_power_measure
from oracles import mass_open


def measure(*pairs):
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


@pytest.mark.parametrize("a", [F(4), F(9), F(25), F(49, 4)])
def test_three_point_family(a):
    """mu = delta_1 + 2*delta_sqrt(a) + delta_a: only the square root works,
    and the dagger endpoints collide."""
    root = a ** F(1, 2)
    assert root ** 2 == a  # parameter chosen to keep atoms rational
    mu = measure((1, 1), (root, 2), (a, 1))
    d = decide_root(mu, 2)
    assert d.is_yes
    assert d.nu.positive_powers() == (F(1), a)
    for kappa in (3, 4, 5, 6):
        assert not decide_root(mu, kappa).is_yes
    p = triple_params(1, root, a, 2)
    assert (p.iota_s, p.iota_s_star) == (3, 2)
    assert p.alpha_dag.power == p.beta_dag.power


@pytest.mark.parametrize("a", [F(2), F(3), F(3, 2)])
def test_wide_hole_family(a):
    """nu = delta_{1/a^4} + delta_a + delta_{a^4} squared: the root-side hole
    (1/a^4, a) exists although every sufficient criterion fails."""
    nu = measure((1 / a ** 4, 1), (a, 1), (a ** 4, 1))
    mu = kappa_power_measure(nu, 2)
    assert list(mu.support) == sorted(
        [a ** -8, a ** -3, F(1), a ** 2, a ** 5, a ** 8]
    )
    assert mass_open(mu, 1, a ** 2) == 0
    p = triple_params(1, a ** 2, a ** 8, 2)
    assert p.alpha_dag.power < p.beta_dag.power
    assert p.gamma.power * p.alpha.power / p.beta.power > p.alpha_dag.power
    assert (p.iota_s, p.iota_s_star) == (2, 4)
    assert mass_open(nu, 1 / a ** 4, a) == 0
    report = check_hole_backward(RootPair(mu, nu, 2), 1, a ** 2)
    by_name = {c.name: c for c in report.claims}
    assert not by_name["(iii-a)"].hypotheses_hold
    assert not by_name["(iii-b)"].hypotheses_hold
    assert by_name["(iii-a)"].holds is True
    assert report.ok


@pytest.mark.parametrize("a", [F(2), F(3)])
def test_mixed_order_family(a):
    """The fourth power of delta_{a^-33} + delta_1 + delta_{a^3} admits
    square and fourth roots but no cube root."""
    nu4 = measure((a ** -33, 1), (1, 1), (a ** 3, 1))
    mu = kappa_power_measure(nu4, 4)
    assert len(mu.atoms) == 15
    assert decide_root(mu, 2).is_yes
    assert decide_root(mu, 4).is_yes
    assert not decide_root(mu, 3).is_yes

    forward = check_hole_forward(RootPair(mu, nu4, 4), a ** -33, 1)
    assert forward.applicable and forward.ok
    assert forward.data["theta1"].to_rational() == a ** -24

    orders = check_root_order_membership(mu, a ** -24, 1, 4)
    assert orders.applicable and orders.ok
    assert orders.data["J"] == [2, 4]


@pytest.mark.parametrize("alpha", [F(1, 5), F(1, 10), F(1, 7)])
def test_proper_inclusion_family(alpha):
    """nu = delta_alpha + delta_1 + delta_2 cubed, with alpha*4 < 1 and
    1 < alpha*256: ten ordered product points, three carrying weight."""
    beta, gamma = F(1), F(2)
    assert beta ** 9 < alpha * gamma ** 8 and alpha * gamma ** 2 < beta ** 3
    nu = measure((alpha, 1), (beta, 1), (gamma, 1))
    mu = kappa_power_measure(nu, 3)
    assert len(mu.atoms) == 10
    # the hole (theta1, theta2) = (alpha*gamma^2, 1) of supp mu
    assert mass_open(mu, alpha * gamma ** 2, 1) == 0
    d = decide_root(mu, 3)
    assert d.is_yes
    assert d.nu.support_size() == 3
    assert d.nu.to_atomic_measure() == nu
    # mass sits below theta1 on the mu side but not below alpha on the nu side
    assert mass_open(mu, 0, alpha * gamma ** 2) > 0
    assert mass_open(nu, 0, alpha) == 0


@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_power_family_holes_all_consistent(kappa):
    """Every hole of a fixed three-atom power measure passes every checker."""
    nu = measure((F(1, 9), 2), (F(2, 3), 1), (4, 3))
    mu = kappa_power_measure(nu, kappa)
    pair = RootPair(mu, nu, kappa)
    for hole in find_holes(mu):
        assert check_hole_backward(pair, hole.lower, hole.upper).ok
    for hole in find_holes(nu):
        assert check_hole_forward(pair, hole.lower, hole.upper).ok
