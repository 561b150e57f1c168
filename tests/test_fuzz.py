import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

from momentroot import decide, fuzz
from momentroot.cli import main
from momentroot.exact import UsageError
from momentroot.fuzz import _run_chunk, run_suite
from momentroot.generate import GenParams
from momentroot.holes import Claim, TheoremReport
from momentroot.measures import AtomicMeasure


@pytest.mark.parametrize(
    "suite,trials",
    [("roundtrip", 60), ("theorems", 12), ("iota", 60), ("feasibility", 60)],
)
def test_suites_run_clean(suite, trials):
    summary = run_suite(suite, GenParams(seed=2024), trials)
    assert summary.ok, [v.to_dict() for v in summary.violations]
    assert summary.trials == trials
    assert summary.to_dict()["ok"] is True


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suite("nope", GenParams(seed=1), 5)
    with pytest.raises(UsageError):
        run_suite("roundtrip", GenParams(seed=1), 0)
    with pytest.raises(UsageError):
        run_suite("roundtrip", GenParams(seed=1), 5, jobs=0)


def test_parallel_matches_serial():
    params = GenParams(seed=31)
    serial = run_suite("roundtrip", params, 24, jobs=1)
    parallel = run_suite("roundtrip", params, 24, jobs=3)
    assert serial.ok == parallel.ok
    assert len(serial.violations) == len(parallel.violations)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    started = []

    class InlinePool:
        """Runs each chunk at submit, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    params = GenParams(seed=31)
    pooled = run_suite("roundtrip", params, 3, jobs=10 ** 6).to_dict()
    serial = run_suite("roundtrip", params, 3).to_dict()
    assert len(started) == 1 and 1 <= started[0] <= 3
    del pooled["elapsed_seconds"], serial["elapsed_seconds"]
    assert pooled == serial
    # a platform without the affinity call counts every CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fuzz._cpus() == (os.cpu_count() or 1)


def test_pool_is_imported_only_when_used():
    # importing the package and a serial run load no pool module; checked in
    # a fresh interpreter, since this one already has the pool loaded
    script = """
import sys
import momentroot, momentroot.cli
from momentroot.fuzz import run_suite
from momentroot.generate import GenParams
serial = run_suite("roundtrip", GenParams(seed=1), 4).to_dict()
print(sorted(m for m in ("multiprocessing", "concurrent.futures", "logging") if m in sys.modules))
pooled = run_suite("roundtrip", GenParams(seed=1), 4, jobs=2).to_dict()
del pooled["elapsed_seconds"], serial["elapsed_seconds"]
print("concurrent.futures.process" in sys.modules, pooled == serial)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "True True"]


def test_violations_are_reported_not_raised(monkeypatch):
    # a seed/suite pair over a tiny kappa range still yields a clean result
    params = GenParams(seed=5, kappa_set=(2,))
    assert run_suite("iota", params, 30).ok
    # a checker whose conclusion fails makes each trial report it, and the
    # run still returns its summary
    failed = TheoremReport("iota relations", (Claim("(i)", (), "never holds", False),))
    monkeypatch.setattr(fuzz, "iota_relations", lambda *triple: failed)
    summary = run_suite("iota", params, 30)
    assert not summary.ok and summary.violations == [failed] * 30
    assert summary.to_dict()["ok"] is False


# Each violation site of the roundtrip and feasibility trials, and the one
# library call, as fuzz imports it, made wrong so that the site fires.  A
# doubled mu is still certified, but its base mass is not the generating
# measure's.
VIOLATION_SITES = [
    ("roundtrip", "certifies", "decide_root",
     lambda real: lambda mu, kappa: real(AtomicMeasure.from_pairs([(1, 1), (2, 1)]), 2)),
    ("roundtrip", "exact recovery", "decide_root",
     lambda real: lambda mu, kappa: real(AtomicMeasure.from_pairs([(p, 2 * w) for p, w in mu.atoms]), kappa)),
    ("roundtrip", "support product formula", "product_support", lambda real: lambda points, k: real(points, k)[1:]),
    ("roundtrip", "support lower bound", "kappa_power_measure",
     lambda real: lambda nu, k: real(AtomicMeasure.from_pairs(nu.atoms[:1]), k)),
    ("roundtrip", "extremes", "kappa_power_measure",
     lambda real: lambda nu, k: real(AtomicMeasure.from_pairs([(2 * p, w) for p, w in nu.atoms]), k)),
    ("feasibility", "witness", "witness", lambda real: lambda m, n: SimpleNamespace(xs=real(m, n).xs[:-1])),
    ("feasibility", "bounds", "n_minus", lambda real: lambda m: m + 1),
    ("feasibility", "probe", "product_count", lambda real: lambda xs: real(xs) + 1),
]


@pytest.mark.parametrize("suite,name,call,wrong", VIOLATION_SITES, ids=[s[1] for s in VIOLATION_SITES])
def test_each_violation_site_is_reported(monkeypatch, capsys, suite, name, call, wrong):
    monkeypatch.setattr(fuzz, call, wrong(getattr(fuzz, call)))
    assert main(["fuzz", "--suite", suite, "--trials", "6", "--seed", "0"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["skipped"] == []
    assert all(v["theorem"] == suite for v in doc["violations"])
    assert name in {claim for v in doc["violations"] for claim in v["violations"]}


def test_iota_suite_clamps_its_bound_to_64(capsys):
    # iota's exact powering is cheap only for small triples, so the trial
    # draws at most at 64 whatever --bound says
    docs = []
    for bound in (64, 65536):
        assert main(["fuzz", "--suite", "iota", "--trials", "50", "--seed", "3", "--bound", str(bound)]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        docs.append(doc)
    assert docs[0] == docs[1] == {"suite": "iota", "trials": 50, "violations": [], "skipped": [], "ok": True}


def test_theorems_with_wide_rational_bounds():
    # numerators/denominators up to 2**10, per the zero-counterexample sweep
    summary = run_suite("theorems", GenParams(seed=8, bound=1024), 10)
    assert summary.ok, [v.to_dict() for v in summary.violations]


def test_skipped_trials_are_reported(monkeypatch):
    params = GenParams(seed=0)
    # the guard counts only the atoms decide_root pushes, so no trial of
    # these ranges is refused at the default limit
    assert run_suite("roundtrip", params, 13).skipped == []
    assert run_suite("theorems", params, 13).skipped == []
    assert _run_chunk("theorems", GenParams(seed=1), 107, 108) == ([], [])
    # below it, the kappa=4 powers of 5-atom nu (70 multisets) are refused;
    # the pool's workers are forked, so they see the lowered limit too
    monkeypatch.setattr(decide, "MAX_MULTISETS", 50)
    serial = run_suite("roundtrip", params, 13)
    refused = "70 multisets of size 4 over 5 elements exceed guard 50"
    assert serial.skipped == [(7, refused), (12, refused)]
    assert serial.trials == 13
    assert [s["index"] for s in serial.to_dict()["skipped"]] == [7, 12]
    parallel = run_suite("roundtrip", params, 13, jobs=2)
    assert parallel.skipped == serial.skipped
    # a theorems trial is skipped only when a hole with iota_s_star == 1
    # needs an order scan the guard refuses
    assert run_suite("theorems", params, 13).skipped == []
    refused = (107, "55 multisets of size 2 over 10 elements exceed guard 50")
    assert _run_chunk("theorems", GenParams(seed=1), 107, 108) == ([], [refused])
