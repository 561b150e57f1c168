import math
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentroot import decide
from momentroot.decide import (
    Certificate,
    CertificateKind,
    NuEntry,
    NuRepresentation,
    RootDecision,
    Verdict,
    approx_root_moments,
    decide_root,
    verify_representation,
)
from momentroot.exact import GuardExceeded, UsageError
from momentroot.measures import AtomicMeasure, kappa_power_measure
from oracles import dilate, hankel_consistency, hankel_matrix, moments, scale_weights


def measure(*pairs):
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


small_fraction = st.fractions(min_value=F(1, 32), max_value=32, max_denominator=64)


@st.composite
def measures(draw, max_atoms=5):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    points = draw(st.lists(small_fraction, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(small_fraction, min_size=n, max_size=n))
    return AtomicMeasure.from_pairs(zip(points, weights))


# ---------------------------------------------------------------------------
# worked decisions
# ---------------------------------------------------------------------------


def test_scaled_dirac_always_has_roots():
    mu = measure((F(7, 3), F(5, 4)))
    for kappa in (2, 3, 7):
        d = decide_root(mu, kappa)
        assert d.is_yes
        assert d.nu.base_mass == F(5, 4)
        assert d.nu.entries[0].rho == 1
        assert d.nu.positive_powers() == (F(7, 3),)


def test_two_atoms_no_square_root():
    d = decide_root(measure((1, 1), (2, 1)), 2)
    assert d.verdict is Verdict.CERTIFIED_NO
    assert d.certificate.kind is CertificateKind.MASS_MISMATCH
    assert d.certificate.location == 2
    assert d.nu is None


def test_geometric_three_atoms():
    mu = measure((1, 1), (2, 2), (4, 1))
    d = decide_root(mu, 2)
    assert d.is_yes
    assert d.nu.to_atomic_measure() == measure((1, 1), (2, 1))
    assert not decide_root(mu, 3).is_yes


def test_fourth_power_measure_roots():
    nu4 = measure((F(1, 2 ** 33), 1), (1, 1), (8, 1))
    mu = kappa_power_measure(nu4, 4)
    assert decide_root(mu, 2).is_yes
    d4 = decide_root(mu, 4)
    assert d4.is_yes
    assert d4.nu.to_atomic_measure() == nu4
    assert not decide_root(mu, 3).is_yes


def test_certificates_have_kinds():
    # square of delta_1 + delta_2 + delta_4 with the mass at 4 cut down:
    # the peeled weight of candidate sqrt(16) goes negative
    d = decide_root(measure((1, 1), (2, 2), (4, F(1, 2)), (8, 2), (16, 1)), 2)
    assert not d.is_yes
    assert d.certificate.kind is CertificateKind.NEGATIVE_RHO
    assert d.certificate.location == 16


def test_coverage_violation_certificate():
    # square of delta_1 + delta_2 + delta_3 with the product atom at 6
    # removed: candidates sqrt(4) and sqrt(9) still carry weight, so their
    # product lands on the missing point; the stray key 36 is reported
    d = decide_root(measure((1, 1), (2, 2), (3, 2), (4, 1), (9, 1)), 2)
    assert not d.is_yes
    assert d.certificate.kind is CertificateKind.COVERAGE_VIOLATION
    assert d.certificate.location == 36


def test_guard_kappa_range():
    mu = measure((1, 1))
    with pytest.raises(UsageError):
        decide_root(mu, 1)
    with pytest.raises(UsageError):
        decide_root(mu, 17)
    with pytest.raises(UsageError, match="kappa must be in"):  # not math's TypeError
        decide_root(mu, 2.0)
    # a decision carries exactly the evidence its verdict names
    with pytest.raises(UsageError, match="yes-decision"):
        RootDecision(Verdict.CERTIFIED_YES, 2)
    with pytest.raises(UsageError, match="no-decision"):
        RootDecision(Verdict.CERTIFIED_NO, 2)


def test_guard_multiset_budget(monkeypatch):
    # the guard counts the atoms decide_root pushes, not the candidates:
    # 80 candidates at kappa 16, but only the first is ever pushed
    monkeypatch.setattr(decide, "MAX_MULTISETS", 1)
    mu = AtomicMeasure.from_pairs([(F(10 ** 9 + i), F(1)) for i in range(80)])
    d = decide_root(mu, 16)
    assert d.certificate == Certificate(CertificateKind.MASS_MISMATCH, F(10 ** 9 + 1))
    # the kappa=4 power of 5 atoms pushes all 5: C(5+4-1, 4) = 70 multisets
    mu = kappa_power_measure(measure((1, 1), (2, 1), (3, 1), (5, 1), (7, 1)), 4)
    monkeypatch.setattr(decide, "MAX_MULTISETS", 70)
    rep = decide_root(mu, 4).nu
    assert verify_representation(mu, rep)
    monkeypatch.setattr(decide, "MAX_MULTISETS", 69)
    message = "^70 multisets of size 4 over 5 elements exceed guard 69$"
    with pytest.raises(GuardExceeded, match=message):
        decide_root(mu, 4)
    with pytest.raises(GuardExceeded, match=message):
        verify_representation(mu, rep)


# ---------------------------------------------------------------------------
# peeling order: the uniqueness argument, checked exhaustively
# ---------------------------------------------------------------------------


@given(
    st.lists(small_fraction, min_size=1, max_size=6, unique=True),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_peeling_key_isolates_new_candidate(points, kappa):
    """Among all size-kappa multisets over the candidates, the only one with
    product x_1**(kappa-1) * x_j containing index j is {j, 1, ..., 1}; all
    others use indices strictly below j."""
    xs = sorted(points)
    for j in range(1, len(xs)):
        key = xs[0] ** (kappa - 1) * xs[j]
        for combo in combinations_with_replacement(range(len(xs)), kappa):
            prod = math.prod((xs[i] for i in combo), start=F(1))
            if prod != key:
                continue
            if j in combo:
                assert combo == (0,) * (kappa - 1) + (j,)
            else:
                assert max(combo) < j


# ---------------------------------------------------------------------------
# round trip and invariants
# ---------------------------------------------------------------------------


@given(measures(max_atoms=5), st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_roundtrip_recovery(nu, kappa):
    mu = kappa_power_measure(nu, kappa)
    d = decide_root(mu, kappa)
    assert d.is_yes
    w1 = nu.atoms[0][1]
    assert d.nu.base_mass == w1 ** kappa
    assert {e.power: e.rho for e in d.nu.positive_entries()} == {
        p ** kappa: w / w1 for p, w in nu.atoms
    }
    assert verify_representation(mu, d.nu)
    assert len(d.nu.entries) == len(mu.atoms)


@given(measures(max_atoms=4), st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_certified_yes_structure(nu, kappa):
    mu = kappa_power_measure(nu, kappa)
    d = decide_root(mu, kappa)
    assert d.nu.support_size() <= len(mu.atoms)
    positives = d.nu.positive_powers()
    assert max(positives) == mu.max_point
    assert min(positives) == mu.min_point


@given(measures(max_atoms=4), st.sampled_from([2, 3]), small_fraction, small_fraction)
@settings(max_examples=30, deadline=None)
def test_scale_equivariance(nu, kappa, c, s):
    mu = kappa_power_measure(nu, kappa)
    base = decide_root(mu, kappa)
    scaled = decide_root(scale_weights(mu, c), kappa)
    assert scaled.is_yes == base.is_yes
    assert [e.rho for e in scaled.nu.entries] == [e.rho for e in base.nu.entries]
    dilated = decide_root(dilate(mu, s ** kappa), kappa)
    assert dilated.is_yes
    assert [e.rho for e in dilated.nu.entries] == [e.rho for e in base.nu.entries]
    assert dilated.nu.positive_powers() == tuple(
        p * s ** kappa for p in base.nu.positive_powers()
    )


def test_scale_equivariance_of_refutations():
    mu = measure((1, 1), (2, 1))
    for c in (F(3), F(1, 7)):
        d = decide_root(scale_weights(mu, c), 2)
        assert not d.is_yes
        assert d.certificate.kind is CertificateKind.MASS_MISMATCH


def test_dilation_by_arbitrary_factor():
    # dilating by s (not itself a kappa-th power) keeps the decision and the
    # rho vector; the root atoms pick up the irrational factor s**(1/kappa)
    mu = measure((1, 1), (2, 2), (4, 1))
    base = decide_root(mu, 2)
    for s in (F(3), F(5, 7)):
        d = decide_root(dilate(mu, s), 2)
        assert d.is_yes
        assert [e.rho for e in d.nu.entries] == [e.rho for e in base.nu.entries]
        assert d.nu.positive_powers() == tuple(
            s * p for p in base.nu.positive_powers()
        )
        assert d.nu.to_atomic_measure() is None or s == 1  # irrational atoms


# ---------------------------------------------------------------------------
# root moment reporting
# ---------------------------------------------------------------------------


@given(
    st.fractions(min_value=F(1, 16), max_value=16, max_denominator=32),
    st.fractions(min_value=F(9, 8), max_value=8, max_denominator=16),
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16),
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=16),
)
@settings(max_examples=60, deadline=None)
def test_three_atom_law_on_random_rationals(t1, r, w1, w3):
    """Geometric support with weights w2^2 = 4*w1*w3 certifies; perturbing
    the middle weight or the geometric relation refutes."""
    from momentroot.exact import perfect_nth_root

    support = (t1, t1 * r, t1 * r ** 2)
    w2 = perfect_nth_root(4 * w1 * w3, 2)
    if w2 is not None:
        mu = AtomicMeasure.from_pairs(zip(support, (w1, w2, w3)))
        assert decide_root(mu, 2).is_yes
        bad = AtomicMeasure.from_pairs(zip(support, (w1, w2 + 1, w3)))
        assert not decide_root(bad, 2).is_yes
    # doubling the top point breaks t2^2 == t1*t3 for every weight choice
    crooked = AtomicMeasure.from_pairs(
        zip((t1, t1 * r, 2 * t1 * r ** 2), (w1, w1, w3))
    )
    assert not decide_root(crooked, 2).is_yes


def test_large_kappa_roundtrip():
    nu = measure((F(2, 3), F(5, 7)), (3, 2))
    for kappa in (7, 8):
        mu = kappa_power_measure(nu, kappa)
        d = decide_root(mu, kappa)
        assert d.is_yes
        assert d.nu.to_atomic_measure() == nu
    # kappa at the very top of the range, single-atom support
    single = measure((F(5, 3), F(7, 2)))
    mu = kappa_power_measure(single, 16)
    d = decide_root(mu, 16)
    assert d.is_yes
    assert d.nu.to_atomic_measure() == single


def test_approx_root_moments_exact_cases():
    d = decide_root(measure((1, 1), (2, 2), (4, 1)), 2)
    assert approx_root_moments(d, 0) == 2

    d = decide_root(measure((F(1, 4), 4)), 2)
    assert approx_root_moments(d, 1) == 1

    nu = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    d = decide_root(kappa_power_measure(nu, 2), 2)
    assert approx_root_moments(d, 1) == F(9, 2)


def test_approx_root_moments_requires_yes():
    d = decide_root(measure((1, 1), (2, 1)), 2)
    with pytest.raises(UsageError):
        approx_root_moments(d, 0)
    with pytest.raises(UsageError, match="moment order"):
        approx_root_moments(decide_root(measure((1, 1)), 2), -1)


def test_rational_form_needs_every_atom_rational():
    # delta_2 at kappa 2: the base mass 1 has a rational square root, the
    # atom sqrt(2) has none
    d = decide_root(measure((2, 1)), 2)
    assert d.is_yes
    assert d.nu.to_atomic_measure() is None
    # delta_4 of mass 2: the atom 2 is rational, the base mass sqrt(2) is not
    d = decide_root(measure((4, 2)), 2)
    assert d.is_yes and d.nu.base_mass == 2
    assert d.nu.to_atomic_measure() is None


def test_verify_representation_rejects_an_empty_root():
    mu = measure((1, 1), (4, 1))
    rep = NuRepresentation(F(1), (NuEntry(F(1), F(0)), NuEntry(F(4), F(0))), 2)
    assert not verify_representation(mu, rep)


def test_refutation_corroborated_by_hankel_oracle():
    """The engine's no-decision for delta_1 + delta_2 agrees with the
    independent Hankel oracle run on 256-bit root-moment approximations:
    the negative minor dwarfs the rounding error, so it is genuine."""
    from momentroot.exact import bigfloat_root

    mu = measure((1, 1), (2, 1))
    assert not decide_root(mu, 2).is_yes
    roots = [bigfloat_root(v, 2, 256) for v in moments(mu, 4)]
    verdict = hankel_consistency(roots)
    assert not verdict.consistent
    assert verdict.witness.determinant < -F(1, 1000)


@given(measures(max_atoms=3), st.sampled_from([2, 3]))
@settings(max_examples=15, deadline=None)
def test_root_moment_hankel_minors_nonnegative(nu, kappa):
    """Numeric Hankel check of the recovered root moments at 256 bits."""
    mu = kappa_power_measure(nu, kappa)
    d = decide_root(mu, kappa)
    top = len(mu.atoms) // 2
    values = [approx_root_moments(d, n, 256) for n in range(2 * top + 1)]
    tol = F(1, 2 ** 128)
    for offset in (0, 1):
        size = (len(values) - 1 - offset) // 2 + 1
        matrix = hankel_matrix(values, offset, size)
        for k in range(1, size + 1):
            det = _det([row[:k] for row in matrix[:k]])
            scale = math.prod((matrix[i][i] for i in range(k)), start=F(1))
            assert det >= -tol * max(scale, F(1))


def _det(mat):
    """Exact determinant by fraction Gaussian elimination."""
    mat = [row[:] for row in mat]
    n = len(mat)
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det
