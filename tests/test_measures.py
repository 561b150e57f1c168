import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentroot.exact import Radical, UsageError
from momentroot.measures import (
    AtomicMeasure,
    Hole,
    dump_measure,
    find_holes,
    kappa_power_measure,
    load_measure,
    product_support,
)
from oracles import hankel_consistency, hankel_matrix, mass_open, measure_dict, moments

import math


def measure(*pairs):
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


small_fraction = st.fractions(min_value=F(1, 32), max_value=32, max_denominator=64)


@st.composite
def measures(draw, max_atoms=5):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    points = draw(
        st.lists(small_fraction, min_size=n, max_size=n, unique=True)
    )
    weights = draw(st.lists(small_fraction, min_size=n, max_size=n))
    return AtomicMeasure.from_pairs(zip(points, weights))


# ---------------------------------------------------------------------------
# construction and moments
# ---------------------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(UsageError):
        AtomicMeasure(())
    with pytest.raises(UsageError):
        measure((0, 1))
    with pytest.raises(UsageError):
        measure((1, 0))
    with pytest.raises(
        UsageError, match=r"^atom positions must be distinct and increasing, got 1 after 1$"
    ):
        measure((1, 1), (1, 2))
    with pytest.raises(UsageError, match=r"^atom positions must be distinct and increasing"):
        AtomicMeasure(((F(2), F(1)), (F(1), F(1))))  # built directly, unsorted
    with pytest.raises(UsageError):
        Hole(F(2), F(1))


def test_moments_two_diracs():
    assert moments(measure((1, 1), (2, 1)), 3) == (2, 3, 5, 9)


def test_moments_scaled_dirac():
    assert moments(measure((F(1, 2), 4)), 2) == (4, 2, 1)


def test_moments_four_atoms():
    nu = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    assert moments(nu, 1) == (4, F(9, 2))


# ---------------------------------------------------------------------------
# kappa-power pushforward
# ---------------------------------------------------------------------------


def test_power_measure_square_of_two_diracs():
    mu = kappa_power_measure(measure((1, 1), (2, 1)), 2)
    assert mu == measure((1, 1), (2, 2), (4, 1))


def test_power_measure_weighted():
    mu = kappa_power_measure(measure((1, 1), (4, 2)), 2)
    assert mu == measure((1, 1), (4, 4), (16, 4))


def test_power_measure_single_dirac():
    mu = kappa_power_measure(measure((F(5, 3), F(7, 2))), 4)
    assert mu == measure((F(5, 3) ** 4, F(7, 2) ** 4))


def test_power_measure_refuses_a_float_kappa():
    # 4.0 in range(2, 17) is true; the refusal is a UsageError, not the
    # TypeError of math.comb
    with pytest.raises(UsageError, match=r"^kappa must be in \[2, 16\], got 4.0$"):
        kappa_power_measure(measure((1, 1), (2, 1)), 4.0)


@given(measures(max_atoms=4), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_measure_moment_identity(nu, kappa):
    mu = kappa_power_measure(nu, kappa)
    base = moments(nu, 8)
    assert moments(mu, 8) == tuple(v ** kappa for v in base)


@given(measures(max_atoms=5), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_power_measure_support_bounds(nu, kappa):
    mu = kappa_power_measure(nu, kappa)
    n = len(nu.atoms)
    assert 2 * n - 1 <= len(mu.atoms) <= math.comb(n + kappa - 1, kappa)
    assert mu.max_point == nu.max_point ** kappa
    assert mu.min_point == nu.min_point ** kappa
    values = [r.to_rational() for r in product_support(nu.support, kappa)]
    assert values == list(mu.support)


# ---------------------------------------------------------------------------
# product supports
# ---------------------------------------------------------------------------


def test_product_support_powers_of_two():
    out = product_support([F(1), F(2)], 3)
    assert [r.to_rational() for r in out] == [1, 2, 4, 8]


def test_product_support_fifteen_points():
    points = [F(1, 2 ** 33), F(1), F(8)]
    out = product_support(points, 4)
    assert len(out) == 15
    expected = sorted(
        {F(2) ** (3 * j - 33 * i) for i in range(5) for j in range(5) if i + j <= 4}
    )
    assert [r.to_rational() for r in out] == expected


def test_product_support_ten_increasing_products():
    out = product_support([F(1, 5), F(1), F(2)], 3)
    values = [r.to_rational() for r in out]
    assert values == [
        F(1, 125), F(1, 25), F(2, 25), F(1, 5), F(2, 5),
        F(4, 5), F(1), F(2), F(4), F(8),
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_product_support_radical_inputs():
    points = [Radical.root(2, 2), Radical.root(8, 2)]
    out = product_support(points, 2)
    assert [r.to_rational() for r in out] == [2, 4, 8]


def test_product_support_mixed_indices_rejected():
    with pytest.raises(UsageError):
        product_support([Radical.root(2, 2), Radical.root(2, 3)], 2)
    with pytest.raises(UsageError, match="needs at least one point"):
        product_support([], 2)


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------


def test_find_holes_three_atoms():
    holes = find_holes(measure((1, 1), (2, 1), (4, 1)))
    assert [(h.lower, h.upper, h.leading) for h in holes] == [
        (0, 1, True),
        (1, 2, False),
        (2, 4, False),
    ]


def test_find_holes_nine_atoms_contains_half_one():
    nu = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    mu = kappa_power_measure(nu, 2)
    assert any(h.lower == F(1, 2) and h.upper == 1 for h in find_holes(mu))


def test_find_holes_single_atom():
    holes = find_holes(measure((3, 2)))
    assert len(holes) == 1 and holes[0].leading
    assert (holes[0].lower, holes[0].upper) == (0, 3)


@given(measures())
@settings(max_examples=40)
def test_holes_partition_support_span(m):
    holes = find_holes(m)
    assert holes[0].leading and holes[0].lower == 0
    for a, b in zip(holes, holes[1:]):
        assert a.upper <= b.lower
    covered = set(m.support) | {0}
    for h in holes:
        assert h.lower in covered and h.upper in covered
        assert mass_open(m, h.lower, h.upper) == 0


# ---------------------------------------------------------------------------
# Hankel positivity
# ---------------------------------------------------------------------------


def _det(mat) -> F:
    """Cofactor-expansion determinant; independent oracle for witnesses."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_hankel_constant_sequence():
    assert hankel_consistency([F(1)] * 4).consistent


def test_hankel_inconsistent_with_witness():
    verdict = hankel_consistency([F(1), F(2), F(1)])
    assert not verdict.consistent
    w = verdict.witness
    assert w.offset == 0 and w.indices == (0, 1)
    assert w.determinant == -3
    sub = [[F(1), F(2)], [F(2), F(1)]]
    assert _det(sub) == -3


def test_hankel_true_moments_consistent():
    prefix = moments(measure((1, 1), (2, 1)), 6)
    assert hankel_consistency(prefix).consistent


def test_hankel_rejects_empty():
    with pytest.raises(UsageError):
        hankel_consistency([])


def test_hankel_single_value():
    assert hankel_consistency([F(3)]).consistent
    assert not hankel_consistency([F(-1)]).consistent


def test_hankel_shifted_matrix_witness():
    # nonnegative prefix failing only the shifted Hankel condition
    verdict = hankel_consistency([F(1), F(-1)])
    assert not verdict.consistent
    assert verdict.witness.offset == 1
    assert verdict.witness.indices == (0,)
    assert verdict.witness.determinant == -1


def test_hankel_zero_pivot_rule():
    # a zero diagonal pivot with a nonzero row entry is a 2x2 refutation
    verdict = hankel_consistency([F(0), F(1), F(2), F(3)])
    assert not verdict.consistent
    assert verdict.witness.offset == 0
    assert verdict.witness.determinant < 0


@given(measures(), st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_hankel_consistent_for_all_true_prefixes(m, horizon):
    assert hankel_consistency(moments(m, horizon)).consistent


@given(st.lists(st.fractions(min_value=-8, max_value=8), min_size=1, max_size=7))
@settings(max_examples=80)
def test_hankel_witness_is_a_genuine_counterexample(values):
    verdict = hankel_consistency(values)
    if verdict.consistent:
        return
    w = verdict.witness
    size = (len(values) - 1 - w.offset) // 2 + 1
    matrix = hankel_matrix(values, w.offset, size)
    sub = [[matrix[i][j] for j in w.indices] for i in w.indices]
    det = _det(sub)
    assert det == w.determinant
    assert det < 0


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------


def test_load_measure_sorts_and_validates(tmp_path):
    doc = {"atoms": [{"point": "3", "weight": "1"}, {"point": "1/6", "weight": "2"}]}
    m = load_measure(doc)
    assert m.support == (F(1, 6), 3)
    path = tmp_path / "m.json"
    import json

    assert dump_measure(m) == measure_dict(m)
    path.write_text(json.dumps(dump_measure(m)))
    assert load_measure(path) == m
    with open(path, encoding="utf-8") as fh:  # an open file object
        assert load_measure(fh) == m


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"atoms": []},
        {"atoms": [{"point": "1"}]},
        {"atoms": [{"point": "-1", "weight": "1"}]},
        {"atoms": [{"point": "0", "weight": "1"}]},
        {"atoms": [{"point": "1", "weight": "1"}, {"point": "1", "weight": "2"}]},
        {"atoms": [{"point": "1", "weight": "-1"}]},
        {"atoms": [{"point": "1", "weight": "0"}]},
        {"atoms": [{"point": "1.5", "weight": "1"}]},
    ],
)
def test_load_measure_rejects(doc):
    with pytest.raises(UsageError):
        load_measure(doc)


def test_from_pairs_sorts_only_atoms_out_of_order(monkeypatch):
    def sorted_first(pairs):
        """AtomicMeasure of the pairs sorted by Fraction comparisons."""
        return AtomicMeasure(tuple(sorted(((F(p), F(w)) for p, w in pairs), key=lambda a: a[0])))

    for order in itertools.permutations([(F(1, 6), 2), (1, 1), (F(7, 2), 1), (4, 3)]):
        assert AtomicMeasure.from_pairs(order) == sorted_first(order)
    # a duplicate, non-positive or misplaced atom gets the error line it gets once sorted
    for bad in ([(1, 1), (1, 2), (2, 1)], [(2, -1), (-1, 1), (3, 1)], [(F(1, 2), 1), (0, 1), (F(1, 2), 3)]):
        for order in itertools.permutations(bad):
            with pytest.raises(UsageError) as want:
                sorted_first(order)
            with pytest.raises(UsageError, match=f"^{re.escape(str(want.value))}$"):
                AtomicMeasure.from_pairs(order)
    # a file that lists its atoms in order is read without a Fraction comparison
    compared = []
    less = F.__lt__
    monkeypatch.setattr(F, "__lt__", lambda a, b: compared.append((a, b)) or less(a, b))
    atoms = [{"point": p, "weight": "1"} for p in ("1/6", "1", "7/2", "4")]
    assert load_measure({"atoms": atoms}).support == (F(1, 6), 1, F(7, 2), 4) and not compared
    assert load_measure({"atoms": atoms[::-1]}).support == (F(1, 6), 1, F(7, 2), 4) and compared
