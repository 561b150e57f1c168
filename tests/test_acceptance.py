"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric claim here is exact (rational arithmetic end to end), so the
tolerances are zero except where a criterion itself states a numeric
margin.  Stated runtime budgets are asserted too.
"""

import itertools
import json
import time
from fractions import Fraction as F

from momentroot import fixtures
from momentroot.cli import main
from momentroot.decide import decide_root
from momentroot.feasibility import feasible, n_minus, n_plus, product_count, witness
from momentroot.holes import kappa_dependence_scan, iota_star_witness
from momentroot.measures import AtomicMeasure


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_table(capsys):
    start = time.monotonic()
    assert main(["table", "--max-m", "15"]) == 0
    elapsed = time.monotonic() - start
    lines = capsys.readouterr().out.strip().splitlines()
    n_minus_row = [int(v) for v in lines[1].split()[1:]]
    n_plus_row = [int(v) for v in lines[2].split()[1:]]
    assert n_minus_row == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5]
    assert n_plus_row == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"table --max-m 15 exact in {elapsed:.3f}s")


def test_criterion_2_feasibility_bounds_and_witnesses(capsys):
    start = time.monotonic()
    assert all(not feasible(2, n) for n in range(1, 10 ** 4 + 1))
    assert all(not feasible(4, n) for n in range(1, 10 ** 4 + 1))
    checked = 0
    for m in range(1, 37):
        for n in range(n_minus(m), n_plus(m) + 1):
            w = witness(m, n)
            assert product_count(w.xs) == m
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(2, f"M in {{2,4}} infeasible for N <= 10^4; {checked} witnesses verified in {elapsed:.2f}s")


def test_criterion_3_fourth_power_instance(capsys):
    start = time.monotonic()
    fixtures.fixture_mixed_root_orders()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(3, f"15-point support; roots exist for kappa=2,4 only; {elapsed:.2f}s")


def test_criterion_4_three_point_instance(capsys):
    fixtures.fixture_three_point_hole()
    with capsys.disabled():
        report(4, "square root delta_1+delta_2; no kappa=3,4,5 root; iotas (3,2); daggers equal")


def test_criterion_5_nine_point_instance(capsys):
    fixtures.fixture_four_point_hole()
    with capsys.disabled():
        report(5, "9-point support; all five iota criteria false; hole fails via atom 1/3")


def test_criterion_6_six_point_instance(capsys):
    fixtures.fixture_three_point_wide_hole()
    with capsys.disabled():
        report(6, "6-point support; nu-hole (1/16,2) with endpoints present; exact inequalities")


def test_criterion_7_proper_inclusion(capsys):
    fixtures.fixture_proper_inclusion()
    with capsys.disabled():
        report(7, "10 candidates, exactly 3 carry weight")


def test_criterion_8_three_atom_grid(capsys):
    start = time.monotonic()
    thetas = [F(2) ** i for i in range(7)]
    mismatches = 0
    total = 0
    for t1, t2, t3 in itertools.combinations(thetas, 3):
        geometric = t2 * t2 == t1 * t3
        for a1 in range(1, 9):
            for a2 in range(1, 9):
                for a3 in range(1, 9):
                    expected = geometric and a2 * a2 == 4 * a1 * a3
                    mu = AtomicMeasure(((t1, F(a1)), (t2, F(a2)), (t3, F(a3))))
                    if decide_root(mu, 2).is_yes != expected:
                        mismatches += 1
                    total += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert total == 35 * 512
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, f"{total} grid instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_9_property_suites(capsys):
    results = []
    for suite, trials in (("roundtrip", 1000), ("theorems", 500), ("iota", 2000)):
        code = main(
            ["fuzz", "--suite", suite, "--trials", str(trials), "--seed", "0"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ok"] is True and doc["violations"] == []
        assert doc["trials"] == trials and doc["skipped"] == []
        assert doc["elapsed_seconds"] < 120.0
        results.append(f"{suite}:{trials} in {doc['elapsed_seconds']}s")
    with capsys.disabled():
        report(9, "zero violations (" + ", ".join(results) + ")")


def test_criterion_10_witness_iotas(capsys):
    from momentroot.holes import iota_relations

    for p in range(2, 11):
        t1, t2, t3 = iota_star_witness(p)
        data = iota_relations(t1, t2, t3).data
        assert data["iota_s"] == 2
        assert data["iota_s_star"] == p
    with capsys.disabled():
        report(10, "witness triples give iota_s=2, iota_s_star=p for p=2..10")


def test_criterion_11_kappa_scans(capsys):
    r = kappa_dependence_scan(F(1, 2), 1, 9, 50)
    claims = {c.name: c for c in r.claims}
    assert claims["(iii) persistence"].holds and not claims["(iii) persistence"].approximate
    assert claims["(iv) crossing at iota_s"].holds

    r2 = kappa_dependence_scan(2, F(5, 2), 2 * 10 ** 4, 12, precision=256)
    assert r2.data["difference_trend"] == "strictly_decreasing"
    assert r2.data["difference_min_gap"] > F(1, 2 ** 100)
    with capsys.disabled():
        report(11, "exact scan to kappa=50; decreasing differences at 256 bits with margins > 2^-100")
