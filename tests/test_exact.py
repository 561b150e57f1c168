from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentroot.exact import (
    Radical,
    UsageError,
    _decimal_str,
    _floor_log,
    _root_dyadic,
    bigfloat_root,
    floor_log_ratio,
    format_rational,
    int_nth_root,
    parse_rational,
    perfect_nth_root,
)
from oracles import radical_compare, ref_decimal

positive_fractions = st.fractions(min_value=F(1, 1000), max_value=1000)


# ---------------------------------------------------------------------------
# rational text encoding
# ---------------------------------------------------------------------------


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == 7
    assert parse_rational("-5/3") == F(-5, 3)
    assert parse_rational("6/4") == F(3, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1e3", " 1", "1/ 2", "2/-3", "/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(UsageError):
        parse_rational(bad)


@given(st.fractions())
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# integer roots
# ---------------------------------------------------------------------------


@st.composite
def root_cases(draw):
    """(n, k): n up to 10**24 or 2**5000, or r**k - 1, r**k or r**k + 1,
    where the float seed of int_nth_root is at its least exact."""
    k = draw(st.integers(min_value=1, max_value=200))
    near_power = st.builds(lambda r, step: r ** k + step, st.integers(min_value=1, max_value=2 ** 64),
                           st.sampled_from([-1, 0, 1]))
    n = draw(st.one_of(st.integers(min_value=0, max_value=10 ** 24), st.integers(min_value=0, max_value=2 ** 5000),
                       near_power))
    return n, k


@given(root_cases())
@settings(max_examples=500)
def test_int_nth_root_is_floor(case):
    n, k = case
    r = int_nth_root(n, k)
    assert r ** k <= n
    assert (r + 1) ** k > n


@pytest.mark.parametrize("bits", [999, 1000, 1001, 1023, 1024, 1025, 1100, 5001])
def test_int_nth_root_shifts_wide_n_into_float_range(bits):
    # the seed shifts n by a multiple of k into float range; a shift that
    # is not one left a float overflow for k > 24 at 1,000 bits
    for n in (2 ** bits - 1, 2 ** (bits - 1), 2 ** (bits - 1) + 3 ** (bits // 2)):
        for k in range(2, 201):
            r = int_nth_root(n, k)
            assert r ** k <= n < (r + 1) ** k, (bits, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda: int_nth_root(-1, 2),
        lambda: int_nth_root(8, 0),
        lambda: perfect_nth_root(F(0), 2),
        lambda: Radical(-1, 1, 2),
        lambda: Radical(1, 0, 2),
        lambda: Radical(1, 2, 0),
        lambda: bigfloat_root(F(0), 2, 64),
        lambda: bigfloat_root(F(2), 0, 64),
    ],
)
def test_primitives_reject_out_of_domain(call):
    with pytest.raises(UsageError):
        call()


def test_radical_root_checks_its_radicand_once():
    with pytest.raises(UsageError, match=r"^radical radicand must be > 0$"):
        Radical.root(F(-1, 2), 3)


def test_perfect_nth_root():
    assert perfect_nth_root(F(8, 27), 3) == F(2, 3)
    assert perfect_nth_root(F(4), 2) == 2
    assert perfect_nth_root(F(2), 2) is None
    assert perfect_nth_root(F(8, 9), 3) is None


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------


def test_radical_compare_dagger_endpoints():
    # alpha_dag = 1/3 against beta_dag = sqrt(1/2): (1/3)^2 = 1/9 < 1/2
    a = Radical(F(1, 3), F(1), 2)
    b = Radical(F(1), F(1, 2), 2)
    assert radical_compare(a, b) == -1
    assert (repr(a), repr(b)) == ("Radical(1/3*1^(1/2))", "Radical(1*1/2^(1/2))")
    assert repr(Radical(0, 1, 2)) == "Radical(0)"


def test_radical_compare_equal_values():
    assert radical_compare(Radical(F(2), F(1), 2), Radical(F(1), F(4), 2)) == 0


def test_radical_compare_triple_1_2_4():
    # alpha_dag = (2/4)*sqrt(4) and beta_dag = sqrt(1) both equal 1
    a = Radical(F(2, 4), F(4), 2)
    b = Radical(F(1), F(1), 2)
    assert radical_compare(a, b) == 0
    assert a.to_rational() == 1 == b.to_rational()


def test_radical_compare_mismatched_index():
    # equality is on (index, power): radicals of two indices, or a radical
    # and a rational, are never equal, even when their values are
    assert Radical.root(2, 2) != Radical.root(2, 3)
    assert Radical.root(4, 2) != Radical.root(8, 3)
    assert Radical.root(4, 2) != 2
    assert Radical(F(2), F(1), 2) == Radical(F(1), F(4), 2)
    assert hash(Radical(F(2), F(1), 2)) == hash(Radical(F(1), F(4), 2))


@given(positive_fractions, positive_fractions, st.integers(min_value=2, max_value=16))
def test_radical_root_order_matches_rational_order(p, q, kappa):
    cmp = radical_compare(Radical.root(p, kappa), Radical.root(q, kappa))
    assert cmp == (p > q) - (p < q)


@given(positive_fractions, positive_fractions, st.integers(min_value=2, max_value=6))
def test_radical_total_order_consistent_with_approx(p, q, kappa):
    a, b = Radical.root(p, kappa), Radical.root(q, kappa)
    cmp = radical_compare(a, b)
    fa, fb = bigfloat_root(a.power, kappa, 64), bigfloat_root(b.power, kappa, 64)
    if cmp < 0:
        assert fa <= fb
    elif cmp > 0:
        assert fa >= fb
    else:
        assert fa == fb


# ---------------------------------------------------------------------------
# exact floor of log ratios
# ---------------------------------------------------------------------------


def test_floor_log_ratio_examples():
    assert floor_log_ratio(F(2), F(8)) == 3
    assert floor_log_ratio(F(9), F(18)) == 1
    assert floor_log_ratio(F(2), F(7)) == 2
    assert floor_log_ratio(F(3, 2), F(1)) == 0


def test_floor_log_ratio_rejects():
    with pytest.raises(UsageError):
        floor_log_ratio(F(1), F(5))
    with pytest.raises(UsageError):
        floor_log_ratio(F(2), F(1, 2))


def test_floor_log_ratio_arguments():
    # ints and other rationals are accepted, and the domain is checked on
    # numerator and denominator with the same messages
    assert floor_log_ratio(2, 8) == 3
    assert floor_log_ratio(F(3, 2), 2) == 1
    assert floor_log_ratio(F(7, 2), F(7, 2)) == 1
    for base in (1, F(1), F(2, 3), F(9, 10)):
        with pytest.raises(UsageError, match=r"^floor_log_ratio needs base > 1$"):
            floor_log_ratio(base, 5)
    for target in (0, F(1, 2), F(99, 100)):
        with pytest.raises(UsageError, match=r"^floor_log_ratio needs target >= 1$"):
            floor_log_ratio(2, target)
    assert floor_log_ratio(2, 1) == 0


@given(
    st.fractions(min_value=F(101, 100), max_value=50),
    st.fractions(min_value=1, max_value=10 ** 6),
)
def test_floor_log_ratio_bracketing(base, target):
    m = floor_log_ratio(base, target)
    assert base ** m <= target < base ** (m + 1)


@given(st.fractions(min_value=F(11, 10), max_value=20), st.integers(min_value=0, max_value=40))
def test_floor_log_ratio_exact_powers(base, m):
    # boundary case: target an exact power must floor to that power
    assert floor_log_ratio(base, base ** m) == m


@pytest.mark.parametrize(
    "base, target, m",
    [
        (F(2), F(2 ** 60 - 1), 59),
        (F(3), F(3 ** 40 - 1), 39),
        (F(3, 2), F(3, 2) ** 50 - F(1, 10 ** 30), 49),
        (F(10), F(10 ** 22 - 1), 21),
    ],
)
def test_floor_log_ratio_steps_down_from_a_high_seed(base, target, m):
    # just below base**(m+1) the float estimate rounds up to m + 1, and
    # the exact powering must step it back down
    assert floor_log_ratio(base, target) == m


def assert_floor_log_matches(p, q, u, v, k, j):
    m = _floor_log(p * k, q * k, u * j, v * j)
    base, target = F(p, q), F(u, v)
    assert m == floor_log_ratio(base, target)
    assert base ** m <= target < base ** (m + 1)
    return m


@given(
    st.fractions(min_value=F(101, 100), max_value=50),
    st.fractions(min_value=1, max_value=10 ** 9),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
)
@settings(max_examples=300, deadline=None)
def test_floor_log_on_unreduced_integers(base, target, k, j):
    # the integer core takes base and target with common factors k and j
    assert_floor_log_matches(base.numerator, base.denominator, target.numerator, target.denominator, k, j)


@given(
    st.integers(min_value=2, max_value=10 ** 4),
    st.integers(min_value=1, max_value=10 ** 4),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_floor_log_at_and_around_exact_powers(p, q, m, k, j):
    # the boundary cases: a target equal to base**m, and 10**-30 either side
    p += q
    base = F(p, q)
    for target, want in ((base ** m, m), (base ** m + F(1, 10 ** 30), m), (base ** m - F(1, 10 ** 30), m - 1)):
        if target >= 1:
            got = assert_floor_log_matches(p, q, target.numerator, target.denominator, k, j)
            assert got == want


# ---------------------------------------------------------------------------
# dyadic approximations
# ---------------------------------------------------------------------------


def _bisect_root(q: F, k: int, bits: int) -> F:
    """Independent oracle: interval bisection on x**k = q."""
    lo, hi = F(0), max(F(1), q)
    for _ in range(bits + q.numerator.bit_length() + q.denominator.bit_length() + 8):
        mid = (lo + hi) / 2
        if mid ** k <= q:
            lo = mid
        else:
            hi = mid
    return lo


def test_sqrt_half_against_bisection():
    approx = bigfloat_root(F(1, 2), 2, 64)
    oracle = _bisect_root(F(1, 2), 2, 90)
    assert abs(approx - oracle) <= F(1, 2 ** 64) * oracle


def test_rational_radical_is_exact():
    assert bigfloat_root(F(9, 4), 2, 64) == F(3, 2)


def test_refinement_consistency():
    a64 = bigfloat_root(F(2), 2, 64)
    a128 = bigfloat_root(F(2), 2, 128)
    assert abs(a64 - a128) <= F(1, 2 ** 63) * a128


def test_precision_floor():
    with pytest.raises(UsageError):
        bigfloat_root(F(2), 2, 16)


@given(positive_fractions, st.integers(min_value=2, max_value=8))
@settings(max_examples=60)
def test_bigfloat_root_error_bound(q, k):
    v = bigfloat_root(q, k, 64)
    # a dyadic with a mantissa of at most 64 bits
    den = v.denominator
    assert den & (den - 1) == 0
    assert (v.numerator // (v.numerator & -v.numerator)).bit_length() <= 64
    # |v - q^(1/k)| <= ulp/2 means v^k brackets q within a relative 2^-63
    assert (v * (1 + F(1, 2 ** 62))) ** k >= q
    assert (v * (1 - F(1, 2 ** 62))) ** k <= q


def test_bigfloat_from_fraction_exact_dyadic():
    # at k = 1 bigfloat_root rounds a rational; a short dyadic stays exact
    assert bigfloat_root(F(9, 2), 1, 64) == F(9, 2)


def test_bigfloat_rounds_ties_to_even():
    assert bigfloat_root(F(2 ** 64 + 1), 1, 64) == 2 ** 64
    assert bigfloat_root(F(2 ** 64 + 3), 1, 64) == 2 ** 64 + 4


def decimal(q: F, digits: int) -> str:
    return _decimal_str(q.numerator, q.denominator, digits)


def test_bigfloat_decimal_rendering():
    assert decimal(F(1, 2), 5) == "0.5"
    assert decimal(F(3), 4) == "3"
    assert decimal(bigfloat_root(F(10 ** 30), 1, 128), 4) == "1e30"


def test_decimal_just_above_a_power_of_ten():
    # 0.1 rounded up to 128 bits lies just above 1/10; its exponent is -1
    # and its 40th digit rounds up
    tenth = bigfloat_root(F(1, 10), 1, 128)
    assert decimal(tenth, 40) == "0.1000000000000000000000000000000000000001"
    assert decimal(tenth, 3) == "0.1"


def _decimal_matches_reference(value: F, digits: int):
    assert decimal(value, digits) == ref_decimal(value, digits), (value, digits)


@pytest.mark.parametrize("bits", [32, 64, 128])
def test_decimal_at_powers_of_ten_matches_reference(bits):
    # 10**k and the values a relative 10**-25 below and above it: at 128
    # bits they stay apart, at 32 and 64 bits all three round to the dyadic
    # next to 10**k, which lies below or above it
    for k in range(-30, 31):
        for q in (F(10) ** k, F(10) ** k * (1 - F(1, 10 ** 25)), F(10) ** k * (1 + F(1, 10 ** 25))):
            value = bigfloat_root(q, 1, bits)
            for digits in (1, 2, 5, 10, 19, 20, 40, 60):
                _decimal_matches_reference(value, digits)
            _decimal_matches_reference(value, max(bits * 301 // 1000, 1))


@given(
    st.fractions(min_value=F(1, 10 ** 12), max_value=10 ** 12),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([32, 64, 128]),
    st.integers(min_value=1, max_value=45),
)
@settings(max_examples=300)
def test_decimal_of_roots_matches_reference(q, k, bits, digits):
    _decimal_matches_reference(bigfloat_root(q, k, bits), digits)


@pytest.mark.parametrize("digits", [1, 2, 3, 7, 19, 20])
def test_decimal_carries_powers_of_ten_and_unreduced_pairs(digits):
    # at 10**e itself, at the half-unit below it that rounds up and carries
    # into a new digit, and just below that half-unit, which does not
    half = F(1, 2 * 10 ** digits)
    for e in range(-25, 26):
        power = F(10) ** e
        carried, below = power * (1 - half), power * (1 - half - F(1, 10 ** 40))
        assert ref_decimal(carried, digits) == ref_decimal(power, digits) != ref_decimal(below, digits)
        for value in (power, carried, below):
            want = ref_decimal(value, digits)
            for scale in (1, 3, 10 ** 5, 2 ** 70):
                got = _decimal_str(value.numerator * scale, value.denominator * scale, digits)
                assert got == want, (value, digits, scale)


@given(
    st.fractions(min_value=F(1, 10 ** 12), max_value=10 ** 12),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=45),
)
@settings(max_examples=200)
def test_int_cores_take_pairs_out_of_lowest_terms(q, k, scale, digits):
    # the triples block hands both cores unreduced numerators and denominators
    num, den = q.numerator * scale, q.denominator * scale
    dyadic = _root_dyadic(num, den, k, 64)
    assert F(*dyadic) == bigfloat_root(q, k, 64)
    assert dyadic[1] & (dyadic[1] - 1) == 0  # a power of two
    assert _decimal_str(*dyadic, digits) == decimal(bigfloat_root(q, k, 64), digits)
    assert _decimal_str(num, den, digits) == ref_decimal(q, digits)
