from fractions import Fraction as F

import pytest

from momentroot.exact import UsageError
from momentroot.generate import (
    GenParams,
    SplitMix64,
    random_atomic_measure,
    random_root_instance,
    random_triple,
    stream,
)


def test_determinism():
    params = GenParams(seed=123, max_atoms=6, bound=97)
    for index in range(8):
        a = random_atomic_measure(params, index)
        b = random_atomic_measure(params, index)
        assert a == b


def test_distinct_indices_differ():
    params = GenParams(seed=42)
    seen = {random_atomic_measure(params, i) for i in range(16)}
    assert len(seen) == 16


def test_golden_stream_seed_42():
    """Frozen first draws for seed 42; guards the PRNG's portability."""
    m0 = random_atomic_measure(GenParams(seed=42), 0)
    assert m0.atoms == (
        (F(15, 64), F(3)),
        (F(22, 51), F(61, 19)),
        (F(41, 58), F(61, 45)),
        (F(56, 53), F(35, 2)),
    )
    m1 = random_atomic_measure(GenParams(seed=42), 1)
    assert m1.atoms == ((F(26, 43), F(1, 46)), (F(62, 53), F(22, 43)))


def test_bounds_respected():
    params = GenParams(seed=9, max_atoms=8, bound=37)
    for index in range(64):
        m = random_atomic_measure(params, index)
        assert 1 <= len(m.atoms) <= 8
        for p, w in m.atoms:
            assert 1 <= p.numerator <= 37 and 1 <= p.denominator <= 37
            assert 1 <= w.numerator <= 37 and 1 <= w.denominator <= 37


def test_random_triple_strictly_increasing():
    params = GenParams(seed=5)
    for index in range(32):
        a, b, c = random_triple(params, index)
        assert 0 < a < b < c


@pytest.mark.parametrize(
    "max_atoms,kappa_set", [(3, (2, 3, 4)), (6, (2, 3, 4)), (2, (2, 3))]
)
def test_root_instances_draw_kappa_apart_from_the_atom_count(max_atoms, kappa_set):
    # gcd(max_atoms, len(kappa_set)) > 1: a kappa drawn from the value the
    # atom count came from would reach only some (atoms, kappa) pairs
    params = GenParams(seed=0, max_atoms=max_atoms, kappa_set=kappa_set)
    seen = set()
    for index in range(200):
        nu, kappa = random_root_instance(params, index)
        assert nu == random_atomic_measure(params, index)
        seen.add((len(nu.atoms), kappa))
    assert seen == {(n, k) for n in range(1, max_atoms + 1) for k in kappa_set}


def test_stream_state_transition():
    rng = SplitMix64(0)
    first = rng.next_u64()
    # splitmix64 test vector for state 0 -> state GOLDEN
    assert first == 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_u64() == first
    assert rng.below(1) == 0
    with pytest.raises(UsageError, match="n >= 1"):
        rng.below(0)


def test_stream_split_disjoint_prefixes():
    params = GenParams(seed=77)
    a = [stream(params, 0).next_u64() for _ in range(4)]
    b = [stream(params, 1).next_u64() for _ in range(4)]
    assert a != b


def test_params_validation():
    with pytest.raises(UsageError):
        GenParams(seed=-1)
    with pytest.raises(UsageError):
        GenParams(seed=1, max_atoms=9)
    with pytest.raises(UsageError):
        GenParams(seed=1, bound=1)
    with pytest.raises(UsageError):
        GenParams(seed=1, kappa_set=(9,))
    with pytest.raises(UsageError):
        GenParams(seed=1, kappa_set=())
