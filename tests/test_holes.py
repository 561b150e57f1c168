import itertools
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentroot.decide import NuRepresentation, decide_root
from momentroot.exact import GuardExceeded, Radical, UsageError, radical_compare
from momentroot.generate import GenParams, pick_kappa, random_atomic_measure, stream
from momentroot.holes import (
    RootPair,
    _member,
    _point,
    _scaled_power,
    _some_inside,
    _triple,
    check_root_order_membership,
    check_top_of_support,
    check_hole_forward,
    check_hole_backward,
    check_lower_support,
    check_iota_hole_criteria,
    ordering_report,
    kappa_dependence_scan,
    iota_dagger_relations,
    iota_relations,
    iota_star_witness,
    triple_params,
)
from momentroot.measures import AtomicMeasure, Hole, find_holes, kappa_power_measure


def measure(*pairs):
    return AtomicMeasure.from_pairs([(F(p), F(w)) for p, w in pairs])


def root_pair(nu, kappa):
    return RootPair(kappa_power_measure(nu, kappa), nu, kappa)


small_fraction = st.fractions(min_value=F(1, 32), max_value=32, max_denominator=64)

triples = (
    st.lists(small_fraction, min_size=3, max_size=3, unique=True)
    .map(sorted)
    .map(tuple)
)


@st.composite
def measures(draw, max_atoms=4):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    points = draw(st.lists(small_fraction, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(small_fraction, min_size=n, max_size=n))
    return AtomicMeasure.from_pairs(zip(points, weights))


# ---------------------------------------------------------------------------
# triple parameters
# ---------------------------------------------------------------------------


def test_triple_params_half_one_nine():
    p = triple_params(F(1, 2), 1, 9, 2)
    assert p.alpha.to_rational() == F(1, 6)
    assert p.alpha_dag.to_rational() == F(1, 3)
    assert p.beta.to_rational() == 1
    assert p.beta_dag.to_rational() is None  # sqrt(1/2)
    assert p.beta_dag.power == F(1, 2)
    assert p.gamma.to_rational() == 3
    assert (p.iota_s, p.iota_s_star) == (2, 4)


def test_triple_params_one_two_four():
    p = triple_params(1, 2, 4, 2)
    assert p.alpha.to_rational() == F(1, 2)
    assert p.alpha_dag.to_rational() == 1
    assert p.beta_dag.to_rational() == 1
    assert radical_compare(p.alpha_dag, p.beta_dag) == 0
    assert p.beta.to_rational() is None and p.beta.power == 2
    assert p.gamma.to_rational() == 2
    assert (p.iota_s, p.iota_s_star) == (3, 2)


def test_triple_params_one_four_256():
    p = triple_params(1, 4, 256, 2)
    assert p.alpha.to_rational() == F(1, 16)
    assert p.alpha_dag.to_rational() == F(1, 4)
    assert p.beta.to_rational() == 2
    assert p.beta_dag.to_rational() == 1
    assert p.gamma.to_rational() == 16
    assert (p.iota_s, p.iota_s_star) == (2, 4)


def test_triple_params_undefined_iotas():
    p = triple_params(0, 1, 2, 2)
    assert p.iota_s is None and p.iota_s_star is None
    assert p.alpha.is_zero() and p.beta_dag.is_zero()
    q = triple_params(1, 2, 2, 3)
    assert q.iota_s is None and q.iota_s_star is None


def test_triple_params_rejects_bad_order():
    with pytest.raises(UsageError):
        triple_params(2, 1, 9, 2)
    with pytest.raises(UsageError):
        triple_params(1, 1, 9, 2)
    with pytest.raises(UsageError):
        triple_params(1, 2, 4, 17)


@given(triples, st.integers(min_value=2, max_value=8))
@settings(max_examples=80, deadline=None)
def test_endpoint_ordering_always_holds(triple, kappa):
    report = ordering_report(triple_params(*triple, kappa))
    assert report.ok, report.to_dict()


# ---------------------------------------------------------------------------
# iota relations and witnesses
# ---------------------------------------------------------------------------


def test_iota_relations_examples():
    r = iota_relations(F(1, 2), 1, 9)
    assert r.data["iota_s"] == 2 and r.data["iota_s_star"] == 4
    assert r.ok

    r = iota_relations(1, 2, 4)
    claims = {c.name: c for c in r.claims}
    assert r.data["iota_s"] == 3 and r.data["iota_s_star"] == 2
    assert claims["(iii)"].holds  # both sides of the equivalence hold
    assert r.ok

    r = iota_relations(1, 4, 8)
    assert r.data["iota_s_star"] == 1
    assert {c.name: c for c in r.claims}["(v)"].holds
    assert r.ok


@given(triples)
@settings(max_examples=150, deadline=None)
def test_iota_relations_never_violated(triple):
    assert iota_relations(*triple).ok


@given(triples, st.fractions(min_value=F(1, 16), max_value=16, max_denominator=32))
@settings(max_examples=60, deadline=None)
def test_iotas_are_scale_invariant(triple, t):
    base = iota_relations(*triple).data
    scaled = iota_relations(*(t * x for x in triple)).data
    assert base["iota_s"] == scaled["iota_s"]
    assert base["iota_s_star"] == scaled["iota_s_star"]


@given(triples, st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_iota_dagger_relations_never_violated(triple, kappa):
    assert iota_dagger_relations(*triple, kappa).ok


def test_iota_star_witness_examples():
    assert iota_star_witness(2) == (F(1, 32), F(1, 8), 1)
    assert iota_star_witness(3) == (F(1, 128), F(1, 32), 1)
    assert iota_star_witness(5) == (F(1, 2 ** 11), F(1, 2 ** 9), 1)


def test_iota_star_witness_range():
    for p in range(2, 11):
        t1, t2, t3 = iota_star_witness(p)
        r = iota_relations(t1, t2, t3)
        assert r.data["iota_s"] == 2
        assert r.data["iota_s_star"] == p
    with pytest.raises(UsageError):
        iota_star_witness(1)
    with pytest.raises(UsageError):
        iota_star_witness(65)


# ---------------------------------------------------------------------------
# kappa-dependence scan
# ---------------------------------------------------------------------------


def test_kappa_scan_exact_items_on_half_one_nine():
    r = kappa_dependence_scan(F(1, 2), 1, 9, 50)
    claims = {c.name: c for c in r.claims}
    assert claims["(iii) persistence"].holds
    assert claims["(iv) crossing at iota_s"].holds
    assert not claims["(iii) persistence"].approximate
    # theta1 <= 1 branch: the difference grows strictly from iota_s on
    assert claims["(v) difference growth"].hypotheses_hold
    assert claims["(v) difference growth"].holds
    assert claims["(v) difference growth"].approximate
    assert r.data["difference_trend"] == "strictly_increasing"
    assert r.ok


def test_kappa_scan_decreasing_instance():
    r = kappa_dependence_scan(2, F(5, 2), 2 * 10 ** 4, 12, precision=256)
    claims = {c.name: c for c in r.claims}
    assert not claims["(v) difference growth"].hypotheses_hold
    assert r.data["difference_trend"] == "strictly_decreasing"
    assert r.data["difference_min_gap"] > F(1, 2 ** 100)
    assert r.ok


def test_kappa_scan_limits_are_monotone():
    r = kappa_dependence_scan(F(1, 2), 1, 9, 30)
    claims = {c.name: c for c in r.claims}
    assert claims["(i) alpha_dag limit"].holds
    assert claims["(ii) beta_dag limit"].holds


def test_kappa_scan_growth_branch_above_one():
    # theta1 > 1 with theta1^q <= theta3^p for theta2/theta3 = p/q: the
    # growth hypothesis holds through its second branch
    r = kappa_dependence_scan(2, 8, 16, 12)
    claims = {c.name: c for c in r.claims}
    growth = claims["(v) difference growth"]
    assert growth.hypotheses_hold
    assert growth.holds
    assert r.data["difference_trend"] == "strictly_increasing"
    assert r.ok


def test_kappa_scan_range_validation():
    with pytest.raises(UsageError):
        kappa_dependence_scan(F(1, 2), 1, 9, 1)
    with pytest.raises(UsageError):
        kappa_dependence_scan(F(1, 2), 1, 9, 201)


def test_kappa_scan_at_the_200_cap():
    r = kappa_dependence_scan(F(1, 2), 1, 9, 200)
    assert r.ok
    assert len(r.data["differences"]) == 199  # iota_s = 2 up to 200


def test_kappa_scan_small_theta3_limit():
    # theta3 < 1: theta3**(1/k) climbs toward 1, approach stays monotone
    r = kappa_dependence_scan(F(1, 8), F(1, 4), F(1, 2), 12)
    claims = {c.name: c for c in r.claims}
    assert claims["(i) alpha_dag limit"].holds
    assert claims["(ii) beta_dag limit"].holds
    assert r.ok


@given(triples, st.integers(min_value=6, max_value=12))
@settings(max_examples=20, deadline=None)
def test_kappa_scan_exact_claims_never_violated(triple, kappa_max):
    r = iota_relations(*triple)
    kappa_max = max(kappa_max, r.data["iota_s"])  # scan must reach iota_s
    if kappa_max > 200:
        return  # outside the scan's supported range
    r = kappa_dependence_scan(*triple, kappa_max, precision=96)
    claims = {c.name: c for c in r.claims}
    assert claims["(iii) persistence"].holds
    assert claims["(iv) crossing at iota_s"].holds is not False


# ---------------------------------------------------------------------------
# the certified root pair
# ---------------------------------------------------------------------------


def test_root_pair_rejects_uncertified_root():
    nu = measure((1, 1), (2, 1))
    mu = kappa_power_measure(nu, 2)
    with pytest.raises(UsageError):
        RootPair(mu, measure((1, 1), (3, 1)), 2)
    with pytest.raises(UsageError):
        RootPair(mu, nu, 3)
    with pytest.raises(UsageError):
        RootPair(mu, [(1, 1), (2, 1)], 2)


def test_root_pair_rejects_representation_of_another_kappa():
    # mu has both a square and a fourth root; the square root's
    # representation must not pass as the fourth root
    nu4 = measure((F(1, 2 ** 33), 1), (1, 1), (8, 1))
    mu = kappa_power_measure(nu4, 4)
    square = decide_root(mu, 2).nu
    with pytest.raises(UsageError):
        RootPair(mu, square, 4)
    fourth = RootPair(mu, decide_root(mu, 4).nu, 4)
    assert fourth == RootPair(mu, nu4, 4)
    assert fourth.powers == (F(1, 2 ** 132), 1, 8 ** 4)


def test_root_pair_has_one_checked_constructor():
    pair = root_pair(measure((1, 1), (2, 1)), 2)
    with pytest.raises(TypeError):
        RootPair(mu=pair.mu, kappa=2, powers=pair.powers)
    with pytest.raises(FrozenInstanceError):
        pair.powers = ()


def test_root_pair_sorts_representation_powers():
    # verify_representation does not read the entries' order
    nu = measure((F(1, 2), 1), (1, 2), (3, 1))
    mu = kappa_power_measure(nu, 2)
    rep = decide_root(mu, 2).nu
    shuffled = NuRepresentation(rep.base_mass, rep.entries[::-1], 2)
    assert RootPair(mu, shuffled, 2) == RootPair(mu, nu, 2)


def test_root_pair_from_decision_gives_same_reports():
    params = GenParams(seed=0)
    compared = 0
    for index in range(40):
        nu = random_atomic_measure(params, index)
        kappa = pick_kappa(params, stream(params, index))
        try:
            mu = kappa_power_measure(nu, kappa)
            decision = decide_root(mu, kappa)
        except GuardExceeded:
            continue
        from_measure = RootPair(mu, nu, kappa)
        from_decision = RootPair(mu, decision.nu, kappa)
        calls = [(check_lower_support,)]
        for hole in find_holes(mu):
            calls.append((check_hole_backward, hole.lower, hole.upper))
            calls.append((check_iota_hole_criteria, hole.lower, hole.upper))
            calls.append((check_top_of_support, hole.lower, hole.upper, mu.max_point))
        for hole in find_holes(nu):
            calls.append((check_hole_forward, hole.lower, hole.upper))
            calls.append((partial(check_hole_forward, canonicalize=True), hole.lower, hole.upper))
        for check, *args in calls:
            a = check(from_measure, *args).to_dict()
            assert a == check(from_decision, *args).to_dict()
            compared += 1
    assert compared > 300


# ---------------------------------------------------------------------------
# the support predicates, against the scans they replaced
# ---------------------------------------------------------------------------


def old_mass_open(mu, lo, hi):
    """mu((lo, hi)) for radical endpoints, by kappa-th power comparisons."""
    k = lo.index
    return sum((w for x, w in mu.atoms if lo.power < x ** k < hi.power), F(0))


def old_in_support(mu, r):
    return not r.is_zero() and any(x ** r.index == r.power for x in mu.support)


def assert_predicates_match_scans(mu, powers, kappa, rationals):
    """_some_inside and _member over nu's powers and over mu's atoms agree
    with the linear scans on every ordered pair of endpoints, lo >= hi too."""
    radicals = [Radical.zero(kappa)]
    for q in rationals:
        if q > 0:
            radicals += [Radical.root(q, kappa), Radical.from_rational(q, kappa)]
            radicals.append(Radical(q, 3, kappa) * Radical.root(powers[-1], kappa))

    def by_power(atom):
        return atom[0] ** kappa

    for lo in radicals:
        assert _member(powers, lo.power) == (lo.power in powers)
        assert _member(mu.atoms, lo.power, by_power) == old_in_support(mu, lo)
        for hi in radicals:
            assert _some_inside(powers, lo.power, hi.power) == any(
                lo.power < p < hi.power for p in powers
            )
            assert _some_inside(mu.atoms, lo.power, hi.power, by_power) == (
                old_mass_open(mu, lo, hi) != 0
            )
    for a in rationals:
        assert _member(mu.atoms, a, _point) == (a in mu.support)
        assert _member(powers, a) == (a in powers)
        for b in rationals:
            assert _some_inside(mu.atoms, a, b, _point) == (mu.mass_open(a, b) != 0)


def test_predicates_match_scans_on_three_atom_grid():
    thetas = [F(2) ** i for i in range(7)]
    for support in itertools.combinations(thetas, 3):
        mu = AtomicMeasure(tuple((t, F(1)) for t in support))
        between = [(a + b) / 2 for a, b in zip(support, support[1:])]
        rationals = [F(0), F(1, 2), *support, *between, F(2) ** 7]
        for kappa in (2, 3):
            assert_predicates_match_scans(mu, support, kappa, rationals)


def test_predicates_match_scans_on_generator_draws():
    params = GenParams(seed=0, max_atoms=3)  # every pair of endpoints is tried
    for index in range(12):
        nu = random_atomic_measure(params, index)
        kappa = pick_kappa(params, stream(params, index))
        try:
            mu = kappa_power_measure(nu, kappa)
        except GuardExceeded:
            continue
        powers = RootPair(mu, nu, kappa).powers
        ends = [h.lower for h in find_holes(mu)] + [h.upper for h in find_holes(mu)]
        rationals = sorted({F(0), *ends, *powers, *nu.support, mu.max_point + 1})
        assert_predicates_match_scans(mu, powers, kappa, rationals)


# ---------------------------------------------------------------------------
# hole transfer nu -> mu
# ---------------------------------------------------------------------------


def test_hole_forward_two_diracs():
    report = check_hole_forward(root_pair(measure((1, 1), (2, 1)), 2), 1, 2)
    assert report.applicable and report.ok
    assert all(c.holds for c in report.claims)
    assert report.data["theta1"].to_rational() == 2
    assert report.data["theta2"].to_rational() == 4
    assert report.data["theta3"].to_rational() == 4


def test_hole_forward_top_hole():
    nu = measure((F(1, 2), 1), (1, 1))
    report = check_hole_forward(root_pair(nu, 2), F(1, 2), 1)
    assert report.applicable and report.ok
    assert report.data["theta1"].to_rational() == F(1, 2)
    assert report.data["theta2"].to_rational() == 1
    mu = kappa_power_measure(nu, 2)
    assert mu == measure((F(1, 4), 1), (F(1, 2), 2), (1, 1))
    assert mu.mass_open(F(1, 2), 1) == 0


def test_hole_forward_inapplicable_interval_is_reported():
    # (alpha, beta) = (1/4, 2) over supp nu = {1/2, 1}: not a nu-hole
    report = check_hole_forward(root_pair(measure((F(1, 2), 1), (1, 1)), 2), F(1, 4), F(3, 4))
    assert not report.applicable
    assert all(c.holds is None for c in report.claims)


def test_hole_forward_radical_endpoints():
    # irrational hole endpoints strictly between the atoms of nu
    nu = measure((1, 1), (4, 1))
    report = check_hole_forward(root_pair(nu, 2), Radical.root(2, 2), Radical.root(8, 2))
    assert report.applicable
    assert report.ok
    assert report.data["theta1"].to_rational() is None  # theta1 = 4*sqrt(2)
    assert report.data["theta2"].to_rational() == 8


def test_hole_forward_canonicalize_preserves_preconditions():
    nu = measure((1, 1), (4, 1))
    report = check_hole_forward(root_pair(nu, 2), Radical.root(2, 2), Radical.root(8, 2), canonicalize=True)
    assert report.applicable and report.ok
    assert report.data["theta1"].to_rational() == 4  # endpoints snapped to 1, 4


@given(measures(), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_hole_forward_fuzz_all_holes(nu, kappa):
    pair = root_pair(nu, kappa)
    for hole in find_holes(nu):
        base = check_hole_forward(pair, hole.lower, hole.upper)
        assert base.ok, base.to_dict()
        canonical = check_hole_forward(pair, hole.lower, hole.upper, canonicalize=True)
        assert canonical.ok, canonical.to_dict()
        if base.applicable:
            # canonicalized endpoints keep the preconditions
            assert canonical.applicable


# ---------------------------------------------------------------------------
# hole transfer mu -> nu
# ---------------------------------------------------------------------------


def test_hole_backward_square_of_two_diracs():
    nu = measure((F(1, 8), 1), (1, 1))
    mu = kappa_power_measure(nu, 2)
    assert mu == measure((F(1, 64), 1), (F(1, 8), 2), (1, 1))
    report = check_hole_backward(RootPair(mu, nu, 2), F(1, 8), 1)
    claims = {c.name: c for c in report.claims}
    assert claims["(iii-a)"].hypotheses_hold  # beta_dag < alpha_dag
    assert claims["(iii-a)"].holds
    assert report.ok


def test_hole_backward_rejects_non_hole():
    # each checker of a hole of supp mu refuses an interval that is not one
    two_diracs = measure((1, 1), (2, 1))  # mu = {1, 2, 4}
    four_point = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    for nu, theta1, theta2 in ((two_diracs, F(3, 2), 3), (four_point, F(1, 100), 2)):
        mu = kappa_power_measure(nu, 2)
        pair = RootPair(mu, nu, 2)
        for check in (check_hole_backward, check_iota_hole_criteria):
            with pytest.raises(UsageError):
                check(pair, theta1, theta2)
        with pytest.raises(UsageError):
            check_root_order_membership(mu, theta1, theta2, 4)


def assert_powers_match_radicals(theta1, theta2, theta3, kappa):
    """The kappa-th powers the mu->nu checkers compare equal the powers of
    the radicals of the triple (_triple does not validate, so theta2 > theta3
    is allowed)."""
    p = _triple(F(theta1), F(theta2), F(theta3), kappa)
    alpha_k = _scaled_power(p.theta1, p.theta3, kappa)
    alpha_dag_k = _scaled_power(p.theta2, p.theta3, kappa)
    assert (alpha_k, alpha_dag_k) == (p.alpha.power, p.alpha_dag.power)
    assert (p.theta1, p.theta2, p.theta3) == (p.beta_dag.power, p.beta.power, p.gamma.power)
    assert p.theta3 * alpha_k / p.theta2 == (p.gamma * p.alpha / p.beta).power
    assert (p.theta1 > alpha_dag_k) - (p.theta1 < alpha_dag_k) == radical_compare(p.beta_dag, p.alpha_dag)
    return p


def test_powers_match_radicals_on_three_atom_grid():
    thetas = [F(2) ** i for i in range(7)]
    for t1, t2, t3 in itertools.combinations(thetas, 3):  # criterion 8's supports
        for kappa in range(2, 9):
            # the holes of {t1, t2, t3}, one above it, and theta3 = theta2
            for triple in ((0, t1, t3), (t1, t2, t3), (t2, t3, t3), (t3, 2 * t3, t3), (t1, t2, t2)):
                assert_powers_match_radicals(*triple, kappa)


def test_powers_match_radicals_on_generator_draws():
    compared = 0
    for index in range(40):
        params = GenParams(seed=0, max_atoms=4, kappa_set=(2 + index % 7,))
        nu = random_atomic_measure(params, index)
        kappa = params.kappa_set[0]
        try:
            mu = kappa_power_measure(nu, kappa)
        except GuardExceeded:
            continue
        pair, theta3 = RootPair(mu, nu, kappa), mu.max_point
        for hole in [*find_holes(mu), Hole(theta3, 2 * theta3)]:
            p = assert_powers_match_radicals(hole.lower, hole.upper, theta3, kappa)
            # and the checker reads the same signs off its powers
            report = check_hole_backward(pair, hole.lower, hole.upper)
            remark = {c.name: c for c in report.claims}["dagger remark"]
            assert report.data["beta_dag_vs_alpha_dag"] == radical_compare(p.beta_dag, p.alpha_dag)
            assert remark.holds == (radical_compare(p.gamma * p.alpha / p.beta, p.alpha_dag) < 0)
            compared += 1
    assert compared > 100


def test_hole_backward_accepts_nu_representation():
    nu = measure((F(1, 8), 1), (1, 1))
    mu = kappa_power_measure(nu, 2)
    d = decide_root(mu, 2)
    report = check_hole_backward(RootPair(mu, d.nu, 2), F(1, 8), 1)
    assert report.ok


def test_hole_backward_hole_above_support_top():
    # theta2 beyond sup supp mu: only part (i) stays applicable
    mu = measure((1, 1))
    report = check_hole_backward(RootPair(mu, measure((1, 1)), 2), 2, 3)
    claims = {c.name: c for c in report.claims}
    assert claims["(i)"].hypotheses_hold and claims["(i)"].holds
    assert not claims["(ii)"].hypotheses_hold
    assert not claims["(iii-a)"].hypotheses_hold
    assert report.ok


# ---------------------------------------------------------------------------
# iota hole criteria
# ---------------------------------------------------------------------------


def test_iota_criteria_condition_iii_fires():
    nu = measure((F(1, 8), 1), (1, 1), (2, 1))
    mu = kappa_power_measure(nu, 2)
    report = check_iota_hole_criteria(RootPair(mu, nu, 2), F(1, 4), 1)
    claims = {c.name: c for c in report.claims}
    assert report.data["iota_s"] == 3
    assert claims["(iii)"].hypotheses_hold
    assert claims["(iii)"].holds
    assert report.ok


def test_iota_criteria_condition_iv_fires():
    nu = measure((F(1, 32), 1), (1, 1), (2, 1))
    mu = kappa_power_measure(nu, 2)
    report = check_iota_hole_criteria(RootPair(mu, nu, 2), F(1, 16), 1)
    claims = {c.name: c for c in report.claims}
    assert report.data["iota_s"] == 4
    assert claims["(iv)"].hypotheses_hold
    assert claims["(iv)"].holds
    assert report.ok


def test_iota_criteria_not_applicable_at_top():
    nu = measure((F(1, 8), 1), (1, 1))
    mu = kappa_power_measure(nu, 2)
    report = check_iota_hole_criteria(RootPair(mu, nu, 2), F(1, 8), 1)  # theta2 == sup supp mu
    assert not report.applicable


# ---------------------------------------------------------------------------
# corollary checkers
# ---------------------------------------------------------------------------


def test_top_of_support_biconditional():
    report = check_top_of_support(root_pair(measure((F(1, 2), 1), (1, 1)), 2), F(1, 2), 1, 1)
    claims = {c.name: c for c in report.claims}
    assert report.data["cond_a"] and report.data["cond_b"]
    assert claims["(iv)"].holds
    assert report.ok


def test_top_of_support_double_hole():
    report = check_top_of_support(root_pair(measure((1, 1), (2, 1)), 2), 1, 2, 4)
    claims = {c.name: c for c in report.claims}
    assert claims["(i)"].hypotheses_hold and claims["(i)"].holds
    assert report.ok


def test_top_of_support_single_atom_both_sides_false():
    report = check_top_of_support(root_pair(measure((1, 1)), 2), F(1, 2), 1, 1)
    claims = {c.name: c for c in report.claims}
    assert not report.data["cond_a"] and not report.data["cond_b"]
    assert claims["(iv)"].holds
    assert report.ok


def test_lower_support_examples():
    report = check_lower_support(root_pair(measure((2, 1), (3, 1)), 2))
    assert report.ok and all(c.holds for c in report.claims)
    assert report.data["min_mu"] == 4

    report = check_lower_support(root_pair(measure((F(5, 7), F(2, 3))), 3))
    assert report.ok
    assert report.data["min_mu"] == F(125, 343)

    nu = measure((F(1, 6), 1), (F(1, 3), 1), (1, 1), (3, 1))
    report = check_lower_support(root_pair(nu, 2))
    assert report.ok
    assert report.data["min_mu"] == F(1, 36)


def test_order_membership_not_applicable_at_top():
    nu = measure((F(1, 8), 1), (1, 1))
    mu = kappa_power_measure(nu, 2)
    report = check_root_order_membership(mu, F(1, 8), 1, 4)
    assert not report.applicable


def test_order_membership_needs_iota_star_one():
    nu = measure((F(1, 8), 1), (1, 1), (2, 1))
    mu = kappa_power_measure(nu, 2)
    report = check_root_order_membership(mu, F(1, 4), 1, 4)
    assert not report.applicable
    assert report.data["iota_s_star"] == 2


def test_order_membership_mixed_orders():
    nu4 = measure((F(1, 2 ** 33), 1), (1, 1), (8, 1))
    mu = kappa_power_measure(nu4, 4)
    report = check_root_order_membership(mu, F(1, 2 ** 24), 1, 4)
    assert report.applicable and report.ok
    assert report.data["J"] == [2, 4]


# ---------------------------------------------------------------------------
# zero-counterexample sweep over generated instances
# ---------------------------------------------------------------------------


@given(measures(max_atoms=4), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_checkers_find_no_counterexamples(nu, kappa):
    mu = kappa_power_measure(nu, kappa)
    pair = RootPair(mu, nu, kappa)
    assert check_lower_support(pair).ok
    for hole in find_holes(mu):
        if hole.leading:
            continue
        assert check_hole_backward(pair, hole.lower, hole.upper).ok
        assert check_iota_hole_criteria(pair, hole.lower, hole.upper).ok
        if 0 < hole.lower and hole.upper < mu.max_point:
            assert check_root_order_membership(mu, hole.lower, hole.upper, 4).ok
