"""Golden instances: the worked examples behind the library, instantiated
at concrete rational parameter values and checked end to end.

Each fixture raises AssertionError on the first mismatch; run_all collects
(name, ok, message) rows for the CLI and for pytest, and refuses to run
under python -O, which strips those asserts.
"""

from __future__ import annotations

from fractions import Fraction

from .decide import approx_root_moments, decide_root, verify_representation
from .exact import UsageError
from .feasibility import class_membership, n_minus, n_plus, product_count, witness
from .holes import RootPair, check_root_order_membership, check_hole_forward, check_hole_backward, check_iota_hole_criteria, triple_params
from .measures import AtomicMeasure, find_holes, kappa_power_measure

__all__ = ["FIXTURES", "run_all"]

F = Fraction


def measure(*pairs) -> AtomicMeasure:
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


def fixture_three_point_hole():
    """mu = delta_1 + 2*delta_2 + delta_4: square root works, no higher root does."""
    mu = measure((1, 1), (2, 2), (4, 1))
    d2 = decide_root(mu, 2)
    assert d2.is_yes
    assert d2.nu.positive_powers() == (F(1), F(4))
    assert [e.rho for e in d2.nu.positive_entries()] == [1, 1]
    assert d2.nu.to_atomic_measure() == measure((1, 1), (2, 1))
    for kappa in (3, 4, 5):
        assert not decide_root(mu, kappa).is_yes, f"kappa={kappa}"
    p = triple_params(1, 2, 4, 2)
    assert p.iota_s == 3 and p.iota_s_star == 2
    assert p.alpha_dag.power == p.beta_dag.power
    assert p.alpha_dag.to_rational() == 1
    # beta = sqrt(2) is not a nu-atom, so every sufficient condition fails
    report = check_iota_hole_criteria(RootPair(mu, d2.nu, 2), 1, 2)
    assert not any(c.hypotheses_hold for c in report.claims)
    assert report.data["conclusion"] is False
    assert report.ok
    assert class_membership(mu) == (3, 2)


def fixture_four_point_hole():
    """nu = delta_{1/6} + delta_{1/3} + delta_1 + delta_3 squared: the hole
    (1/2, 1) of supp mu does not transfer back to supp nu."""
    nu = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    mu = kappa_power_measure(nu, 2)
    expected = [F(1, 36), F(1, 18), F(1, 9), F(1, 6), F(1, 3), F(1, 2), 1, 3, 9]
    assert list(mu.support) == expected
    assert any(h.lower == F(1, 2) and h.upper == 1 for h in find_holes(mu))

    p = triple_params(F(1, 2), 1, 9, 2)
    assert p.iota_s == 2 and p.iota_s_star == 4
    assert p.alpha.to_rational() == F(1, 6)
    assert p.alpha_dag.to_rational() == F(1, 3)
    assert p.gamma.to_rational() == 3
    assert p.alpha_dag.power < p.beta_dag.power  # 1/3 < sqrt(1/2)

    pair = RootPair(mu, nu, 2)
    report = check_iota_hole_criteria(pair, F(1, 2), 1)
    assert not any(c.hypotheses_hold for c in report.claims)
    assert report.data["conclusion"] is False  # 1/3 sits inside (1/6, 1)
    assert report.ok
    assert any(F(1, 6) < x < 1 for x in nu.support)
    assert F(1, 3) in nu.support

    plus = check_hole_backward(pair, F(1, 2), 1)
    by_name = {c.name: c for c in plus.claims}
    assert by_name["(i)"].holds and by_name["(ii)"].holds
    assert not by_name["(iii-a)"].hypotheses_hold
    assert not by_name["(iii-b)"].hypotheses_hold
    assert by_name["(iii-a)"].holds is False
    assert plus.ok

    d = decide_root(mu, 2)
    assert d.is_yes and verify_representation(mu, d.nu)
    assert approx_root_moments(d, 1) == F(9, 2)
    assert class_membership(mu) == (9, 4)


def fixture_three_point_wide_hole():
    """nu = delta_{1/16} + delta_2 + delta_16 squared: the nu-hole (1/16, 2)
    exists even though every sufficient criterion misses it."""
    nu = measure((F(1, 16), 1), (2, 1), (16, 1))
    mu = kappa_power_measure(nu, 2)
    assert list(mu.support) == [F(1, 256), F(1, 8), 1, 4, 32, 256]
    assert not any(1 < x < 4 for x in mu.support)

    p = triple_params(1, 4, 256, 2)
    assert p.alpha.to_rational() == F(1, 16)
    assert p.alpha_dag.to_rational() == F(1, 4)
    assert p.beta.to_rational() == 2
    assert p.beta_dag.to_rational() == 1
    assert p.alpha_dag.power < p.beta_dag.power
    assert p.gamma.power * p.alpha.power / p.beta.power > p.alpha_dag.power
    assert p.iota_s == 2 and p.iota_s_star == 4

    assert not any(F(1, 16) < x < 2 for x in nu.support)
    assert F(1, 16) in nu.support and F(2) in nu.support

    plus = check_hole_backward(RootPair(mu, nu, 2), 1, 4)
    by_name = {c.name: c for c in plus.claims}
    assert not by_name["(iii-a)"].hypotheses_hold
    assert not by_name["(iii-b)"].hypotheses_hold
    assert by_name["(iii-a)"].holds is True  # conclusion true anyway
    assert plus.ok
    assert class_membership(mu) == (6, 3)


def fixture_mixed_root_orders():
    """nu4 = delta_{2^-33} + delta_1 + delta_8 to the fourth power: roots
    exist for kappa = 2 and 4 but not for kappa = 3."""
    nu4 = measure((F(1, 2 ** 33), 1), (1, 1), (8, 1))
    mu = kappa_power_measure(nu4, 4)
    assert len(mu.atoms) == 15
    assert set(mu.support) == {
        F(2) ** (3 * j - 33 * i)
        for i in range(5)
        for j in range(5)
        if i + j <= 4
    }
    assert decide_root(mu, 2).is_yes
    d4 = decide_root(mu, 4)
    assert d4.is_yes
    assert d4.nu.to_atomic_measure() == nu4
    assert not decide_root(mu, 3).is_yes

    forward = check_hole_forward(RootPair(mu, nu4, 4), F(1, 2 ** 33), 1)
    assert forward.applicable and forward.ok
    assert all(c.holds for c in forward.claims)
    assert forward.data["theta1"].to_rational() == F(1, 2 ** 24)
    assert forward.data["theta3"].to_rational() == 2 ** 12

    orders = check_root_order_membership(mu, F(1, 2 ** 24), 1, 4)
    assert orders.applicable and orders.ok
    assert orders.data["J"] == [2, 4]
    assert orders.data["theta2_in_supp_mu"] is True


def fixture_proper_inclusion():
    """nu = delta_{1/5} + delta_1 + delta_2 cubed: only 3 of the 10 root
    candidates carry weight."""
    nu = measure((F(1, 5), 1), (1, 1), (2, 1))
    mu = kappa_power_measure(nu, 3)
    expected = [
        F(1, 125), F(1, 25), F(2, 25), F(1, 5), F(2, 5),
        F(4, 5), F(1), F(2), F(4), F(8),
    ]
    support = list(mu.support)
    assert support == expected
    assert all(a < b for a, b in zip(support, support[1:]))
    d = decide_root(mu, 3)
    assert d.is_yes
    assert len(d.nu.entries) == 10
    assert d.nu.support_size() == 3
    assert d.nu.to_atomic_measure() == nu


def fixture_two_point_never():
    """Two distinct atoms never admit a square root of the moment sequence."""
    for t1, t2, w1, w2 in ((1, 2, 1, 1), (F(1, 3), 5, 2, 7), (2, 3, 1, 4)):
        mu = measure((t1, w1), (t2, w2))
        assert not decide_root(mu, 2).is_yes
    assert decide_root(measure((F(3, 7), F(5, 2))), 2).is_yes


def fixture_three_atom_criterion():
    """Spot instances of the geometric-progression square-root criterion."""
    yes = measure((1, 1), (2, 2), (4, 1))
    assert decide_root(yes, 2).is_yes
    scaled = measure((1, 3), (2, 12), (4, 12))  # 12^2 = 4*3*12
    assert decide_root(scaled, 2).is_yes
    assert not decide_root(measure((1, 1), (2, 3), (4, 1)), 2).is_yes
    assert not decide_root(measure((1, 1), (2, 2), (5, 1)), 2).is_yes
    assert not decide_root(measure((1, 1), (3, 2), (4, 1)), 2).is_yes


def fixture_count_table():
    """First fifteen values of the root-support size bounds."""
    lows = [n_minus(m) for m in range(1, 16)]
    highs = [n_plus(m) for m in range(1, 16)]
    assert lows == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5]
    assert highs == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]


def fixture_witnesses():
    """Feasibility witnesses for the worked (M, N) pairs."""
    w = witness(7, 4)
    assert w.xs == (1, 2, 4, 8)
    assert product_count(w.xs) == 7
    w = witness(10, 4)
    assert w.xs == (F(1, 16), 1, 4, 8)
    assert product_count(w.xs) == 10
    assert witness(1, 1).xs == (1,)
    for m in (2, 4):
        assert all(not (2 * n - 1 <= m <= n * (n + 1) // 2) for n in range(1, 100))


FIXTURES = [
    ("three-point-hole", fixture_three_point_hole),
    ("four-point-hole", fixture_four_point_hole),
    ("three-point-wide-hole", fixture_three_point_wide_hole),
    ("mixed-root-orders", fixture_mixed_root_orders),
    ("proper-inclusion", fixture_proper_inclusion),
    ("two-point-never", fixture_two_point_never),
    ("three-atom-criterion", fixture_three_atom_criterion),
    ("count-table", fixture_count_table),
    ("witnesses", fixture_witnesses),
]


def run_all() -> list[tuple[str, bool, str]]:
    if not __debug__:  # python -O strips the asserts every fixture checks with
        raise UsageError("the fixtures check with assert statements; run them without python -O")
    rows = []
    for name, fn in FIXTURES:
        try:
            fn()
        except AssertionError as exc:
            rows.append((name, False, str(exc) or "assertion failed"))
        else:
            rows.append((name, True, ""))
    return rows
