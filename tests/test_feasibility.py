from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentroot.exact import UsageError
from momentroot.feasibility import (
    InfeasiblePair,
    class_membership,
    feasible,
    n_minus,
    n_plus,
    product_count,
    witness,
)
from momentroot.measures import AtomicMeasure, kappa_power_measure


def measure(*pairs):
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


TABLE_N_MINUS = [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5]
TABLE_N_PLUS = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]


def test_first_fifteen_bounds():
    assert [n_minus(m) for m in range(1, 16)] == TABLE_N_MINUS
    assert [n_plus(m) for m in range(1, 16)] == TABLE_N_PLUS


def test_bounds_reject_nonpositive():
    with pytest.raises(UsageError):
        n_minus(0)
    with pytest.raises(UsageError):
        n_plus(0)
    with pytest.raises(UsageError):
        feasible(0, 1)


def test_feasible_examples():
    assert feasible(3, 2)
    assert feasible(10, 4)  # 7 <= 10 <= 10
    assert not feasible(11, 4)
    assert all(not feasible(2, n) for n in range(1, 200))
    assert all(not feasible(4, n) for n in range(1, 200))


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=60))
def test_feasible_matches_bounds(m, n):
    assert feasible(m, n) == (n_minus(m) <= n <= n_plus(m))


def test_sequence_shape_up_to_200():
    lows = [n_minus(m) for m in range(1, 201)]
    highs = [n_plus(m) for m in range(1, 201)]
    assert all(b >= a for a, b in zip(lows, lows[1:]))
    assert all(b >= a for a, b in zip(highs, highs[1:]))
    # exactly k entries of n_minus equal k; exactly 2 entries of n_plus equal k
    for k in range(1, lows[-1]):
        assert lows.count(k) == k
    for k in range(1, highs[-1]):
        assert highs.count(k) == 2
    for m in range(1, 201):
        assert (lows[m - 1] <= highs[m - 1]) == any(
            feasible(m, n) for n in range(1, m + 2)
        )


def test_product_count_examples():
    assert product_count([F(1)]) == 1
    assert product_count([1, 2, 4]) == 5
    assert product_count([1, 4, 8]) == 6


def test_product_count_rejects():
    with pytest.raises(UsageError):
        product_count([1, 1])
    with pytest.raises(UsageError):
        product_count([0, 1])


def test_witness_examples():
    assert witness(1, 1).xs == (1,)
    assert witness(3, 2).xs == (1, 2)
    w = witness(7, 4)
    assert w.xs == (1, 2, 4, 8) and product_count(w.xs) == 7
    w = witness(10, 4)
    assert w.xs == (F(1, 16), 1, 4, 8) and product_count(w.xs) == 10


def test_witness_infeasible():
    with pytest.raises(InfeasiblePair):
        witness(2, 1)
    with pytest.raises(InfeasiblePair):
        witness(11, 4)


def _sweep_pairs():
    for n in range(1, 31):
        yield from ((m, n) for m in range(2 * n - 1, n * (n + 1) // 2 + 1))
    for n in range(31, 41):
        yield from ((m, n) for m in (2 * n - 1, 3 * (n - 1), 3 * (n - 1) + 1, n * (n + 1) // 2))


def _exponent(power_of_two):
    return power_of_two.numerator.bit_length() - power_of_two.denominator.bit_length()


def test_witness_sweep_up_to_n40():
    """Every feasible pair with N <= 30, and for N <= 40 the pairs at both
    ends of the geometric range and of the recursive one: each witness
    prints, increases and has exactly M products."""
    widest = 0
    for m, n in _sweep_pairs():
        w = witness(m, n)
        assert len(w.to_dict()["xs"]) == n
        assert all(b > a for a, b in zip(w.xs, w.xs[1:]))
        assert product_count(w.xs) == m
        widest = max(widest, _exponent(w.xs[-1]) - _exponent(w.xs[0]))
    assert widest <= 2779  # reached at (820, 40)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_witness_moment_lift(n):
    """The squared moment sequence of a witness tuple certifies back to it."""
    from momentroot.decide import decide_root

    for m in (2 * n - 1, n * (n + 1) // 2):
        xs = witness(m, n).xs
        mu = kappa_power_measure(
            AtomicMeasure.from_pairs([(x, F(1)) for x in xs]), 2
        )
        assert len(mu.atoms) == m
        d = decide_root(mu, 2)
        assert d.is_yes
        assert d.nu.positive_powers() == tuple(x ** 2 for x in xs)


def test_class_membership_examples():
    assert class_membership(measure((1, 1), (2, 2), (4, 1))) == (3, 2)

    nu = measure((F(1, 16), 1), (2, 1), (16, 1))
    assert class_membership(kappa_power_measure(nu, 2)) == (6, 3)

    assert class_membership(measure((1, 1), (2, 1))) == (2, None)


@given(
    st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=6, unique=True
    )
)
@settings(max_examples=200)
def test_geometric_probe_lands_in_feasible_band(exponents):
    xs = [F(2) ** e for e in sorted(exponents)]
    n = len(xs)
    count = product_count(xs)
    assert 2 * n - 1 <= count <= n * (n + 1) // 2
