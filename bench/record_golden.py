"""Record bench/golden.json: the pool catalogue and the verdicts and
certificates of every perturbed instance.

    python3 bench/record_golden.py

Run it only when the pools themselves change; timed runs never write the
golden file.  The decide_beyond_guard pool is decided with decide_root's
multiset guard raised for this script only, so its golden answers are the
ones a guard fix must reproduce.
"""

from __future__ import annotations

import json
import sys
import time

from run import import_package

import corpus as C


def _record(mr, family, entry, nu, mu, counts):
    kappa = entry["kappa"]
    yes = mr.decide.decide_root(mu, kappa)
    positives = {e.power: e.rho for e in yes.nu.entries if e.rho > 0} if yes.is_yes else None
    if not yes.is_yes or not C.recovers(yes.nu.base_mass, positives, nu, kappa):
        raise SystemExit(f"{family} entry {entry}: the kappa-th power is not recovered")
    entry["mu"] = C.measure_digest(mu)
    entry["outcomes"] = {}
    for variant in C.VARIANTS[1:]:
        outcome = C.decision_outcome(mr.decide.decide_root(C.perturb(mr, mu, nu, kappa, variant), kappa))
        entry["outcomes"][variant] = outcome
        counts[outcome.split(":")[1] if outcome.startswith("no") else "yes"] += 1
    return entry


def _fixed_size(mr, family, shapes, draws, keep, counts):
    out = []
    for n, kappa in shapes:
        draw = taken = 0
        while taken < draws:
            entry = {"n": n, "kappa": kappa, "draw": draw}
            draw += 1
            nu = C.pool_nu(mr, family, entry)
            mu = mr.measures.kappa_power_measure(nu, kappa)
            if keep(mu, kappa):
                out.append(_record(mr, family, entry, nu, mu, counts))
                taken += 1
    return out


def main() -> int:
    start = time.perf_counter()
    mr = import_package()
    golden = {"about": "written by bench/record_golden.py; see bench/README.md"}
    counts = {"yes": 0, "negative_rho": 0, "mass_mismatch": 0, "coverage_violation": 0}

    small = []
    for index in range(C.SMALL_POOL):
        nu, kappa = C.small_draw(mr, index)
        mu = mr.measures.kappa_power_measure(nu, kappa)
        if C.inside_guard(len(mu.atoms) + C.MAX_ADDED_ATOMS, kappa):
            entry = {"index": index, "n": len(nu.atoms), "kappa": kappa}
            small.append(_record(mr, "small", entry, nu, mu, counts))
    golden["small"] = small
    inside = lambda mu, kappa: C.inside_guard(len(mu.atoms) + C.MAX_ADDED_ATOMS, kappa)  # noqa: E731
    golden["large"] = _fixed_size(
        mr, "large", [(n, 2) for n in C.LARGE_SIZES], C.LARGE_DRAWS, inside, counts
    )
    # every analyze variant stays inside the guard of the kappa <= 4
    # membership scan as well
    golden["analyze"] = _fixed_size(
        mr, "analyze", [(n, k) for k, n in C.ANALYZE_SHAPES], C.ANALYZE_DRAWS,
        lambda mu, kappa: C.inside_guard(len(mu.atoms) + C.MAX_ADDED_ATOMS, max(kappa, 4)), counts,
    )
    print(f"inside the guard: {counts} ({time.perf_counter() - start:.0f} s)", file=sys.stderr)

    mr.decide.MAX_MULTISETS = 10 ** 30  # this script only
    beyond = {"yes": 0, "negative_rho": 0, "mass_mismatch": 0, "coverage_violation": 0}
    golden["beyond"] = _fixed_size(
        mr, "beyond", C.BEYOND_SHAPES, C.BEYOND_DRAWS,
        lambda mu, kappa: not C.inside_guard(len(mu.atoms), kappa), beyond,
    )
    print("beyond the guard:", beyond, file=sys.stderr)

    with open(C.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
