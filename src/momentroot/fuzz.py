"""Fuzz suites: deterministic random instances driven through the round
trip, the hole-transfer checkers, the iota relations, and the feasibility
witnesses.  Violations are data, not exceptions; a passing run has none.

Each trial owns its PRNG stream (derived from the seed and the trial
index), so results are independent of execution order and of the degree
of parallelism, and aggregation is a plain concatenation.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .decide import decide_root
from .exact import GuardExceeded, UsageError
from .feasibility import n_minus, n_plus, product_count, witness
from .generate import GenParams, random_root_instance, random_triple, stream
from .holes import (
    Claim,
    RootPair,
    TheoremReport,
    _IntSupport,
    _order_scans,
    _walk_holes,
    check_top_of_support,
    check_hole_forward,
    check_lower_support,
    ordering_report,
    iota_dagger_relations,
    iota_relations,
    triple_params,
)
from .measures import kappa_power_measure, product_support

__all__ = ["FuzzSummary", "run_suite", "SUITES"]

SUITES = ("roundtrip", "theorems", "iota", "feasibility")
MAX_TRIALS = 10 ** 6


@dataclass
class FuzzSummary:
    """trials is the number requested; skipped holds (index, reason) for each
    trial a guard refused, in index order, so trials - len(skipped) ran."""

    suite: str
    trials: int
    violations: list[TheoremReport] = field(default_factory=list)
    elapsed: float = 0.0
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "violations": [v.to_dict() for v in self.violations],
            "skipped": [{"index": i, "reason": reason} for i, reason in self.skipped],
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _fail(theorem: str, name: str, conclusion: str, **data) -> TheoremReport:
    claim = Claim(name, (), conclusion, False)
    return TheoremReport(theorem, (claim,), data=data)


def _trial_roundtrip(params: GenParams, index: int) -> list[TheoremReport]:
    nu, kappa = random_root_instance(params, index)
    mu = kappa_power_measure(nu, kappa)
    out: list[TheoremReport] = []
    ctx = {"index": index, "kappa": kappa, "atoms": len(nu.atoms)}

    decision = decide_root(mu, kappa)
    if not decision.is_yes:
        out.append(
            _fail(
                "roundtrip",
                "certifies",
                "decide_root over a kappa-power measure must certify",
                **ctx,
            )
        )
        return out
    rep = decision.nu
    w1 = nu.atoms[0][1]
    expected = {p ** kappa: w / w1 for p, w in nu.atoms}
    recovered = {e.power: e.rho for e in rep.positive_entries()}
    if recovered != expected or rep.base_mass != w1 ** kappa:
        out.append(
            _fail(
                "roundtrip",
                "exact recovery",
                "positive entries must equal the generating measure",
                **ctx,
            )
        )
    support = product_support(nu.support, kappa)
    n_atoms = len(nu.atoms)
    card = len(mu.atoms)
    if [r.to_rational() for r in support] != list(mu.support):
        out.append(
            _fail(
                "roundtrip",
                "support product formula",
                "supp mu must equal the kappa-fold product set of supp nu",
                **ctx,
            )
        )
    if not 2 * n_atoms - 1 <= card:
        out.append(_fail("roundtrip", "support lower bound", "card >= 2N-1", **ctx))
    if mu.max_point != nu.max_point ** kappa or mu.min_point != nu.min_point ** kappa:
        out.append(
            _fail("roundtrip", "extremes", "sup/min supp mu are kappa-th powers", **ctx)
        )
    return out


def _trial_theorems(params: GenParams, index: int) -> list[TheoremReport]:
    nu, kappa = random_root_instance(params, index)
    mu = kappa_power_measure(nu, kappa)
    pair = RootPair(mu, nu, kappa)
    reports: list[TheoremReport] = []

    reports.append(check_lower_support(pair))
    table = _IntSupport(mu)
    scans, refused = _order_scans(table, max(params.kappa_set))
    if refused:
        raise GuardExceeded(refused[0][1])
    reports.extend(_walk_holes(pair, scans, table))
    # consecutive holes (x_{i-1}, x_i), (x_i, x_{i+1}) exercise the two-hole statement
    points = table.points
    for theta1, theta2, theta3 in zip(points, points[1:], points[2:]):
        reports.append(check_top_of_support(pair, theta1, theta2, theta3))
    # top hole with theta2 == theta3 == sup supp mu
    if len(points) >= 2:
        reports.append(check_top_of_support(pair, points[-2], points[-1], points[-1]))
    # holes of nu through the nu->mu transfer, plain and canonicalized
    for alpha, beta in zip([Fraction(0), *nu.support], nu.support):
        reports.append(check_hole_forward(pair, alpha, beta))
        reports.append(check_hole_forward(pair, alpha, beta, canonicalize=True))
    return [r for r in reports if not r.ok]


def _trial_iota(params: GenParams, index: int) -> list[TheoremReport]:
    bound = min(params.bound, 64)  # keeps adversarial log-ratios cheap
    triple = random_triple(
        GenParams(params.seed, params.max_atoms, bound, params.kappa_set), index
    )
    reports = [iota_relations(*triple)]
    for kappa in params.kappa_set:
        reports.append(iota_dagger_relations(*triple, kappa))
        reports.append(ordering_report(triple_params(*triple, kappa)))
    return [r for r in reports if not r.ok]


def _trial_feasibility(params: GenParams, index: int) -> list[TheoremReport]:
    rng = stream(params, index)
    out: list[TheoremReport] = []
    n = 1 + rng.below(8)
    lo, hi = 2 * n - 1, n * (n + 1) // 2
    m = lo + rng.below(hi - lo + 1)
    w = witness(m, n)
    if product_count(w.xs) != m or len(w.xs) != n:
        out.append(
            _fail("feasibility", "witness", "witness must realize M", M=m, N=n)
        )
    if not n_minus(m) <= n <= n_plus(m):
        out.append(
            _fail("feasibility", "bounds", "feasible N must lie in [n-, n+]", M=m, N=n)
        )
    # random geometric probe: any tuple's product count must land in range
    size = 1 + rng.below(6)
    exponents: set[int] = set()
    while len(exponents) < size:
        exponents.add(rng.below(4 * size + 4))
    xs = [Fraction(2) ** e for e in sorted(exponents)]
    count = product_count(xs)
    if not 2 * size - 1 <= count <= size * (size + 1) // 2:
        out.append(
            _fail(
                "feasibility",
                "probe",
                "product count must lie in [2N-1, N(N+1)/2]",
                N=size,
                count=count,
            )
        )
    return out


_TRIALS = {
    "roundtrip": _trial_roundtrip,
    "theorems": _trial_theorems,
    "iota": _trial_iota,
    "feasibility": _trial_feasibility,
}


def _run_chunk(suite: str, params: GenParams, lo: int, hi: int):
    """(violations, skipped) of trials lo..hi-1; an oversized instance is
    skipped with the guard's message, not counted as a violation."""
    trial = _TRIALS[suite]
    violations: list[TheoremReport] = []
    skipped: list[tuple[int, str]] = []
    for index in range(lo, hi):
        try:
            violations.extend(trial(params, index))
        except GuardExceeded as exc:
            skipped.append((index, str(exc)))
    return violations, skipped


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_suite(
    suite: str, params: GenParams, trials: int, jobs: int = 1
) -> FuzzSummary:
    if suite not in _TRIALS:
        raise UsageError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if not 1 <= trials <= MAX_TRIALS:
        raise UsageError(f"trials must be in [1, {MAX_TRIALS}]")
    start = time.monotonic()
    if jobs <= 1:
        chunks = [_run_chunk(suite, params, 0, trials)]
    else:
        step = -(-trials // jobs)
        ranges = [(i, min(i + step, trials)) for i in range(0, trials, step)]
        # a pool may start all its workers at once: no more than there are
        # chunks, or CPUs to run them
        with ProcessPoolExecutor(max_workers=min(len(ranges), _cpus())) as pool:
            futures = [
                pool.submit(_run_chunk, suite, params, lo, hi) for lo, hi in ranges
            ]
            chunks = [fut.result() for fut in futures]  # in index order
    violations = [v for chunk, _ in chunks for v in chunk]
    skipped = [s for _, chunk in chunks for s in chunk]
    return FuzzSummary(suite, trials, violations, time.monotonic() - start, skipped)
