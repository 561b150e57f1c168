from concurrent.futures import Future

import pytest

from momentroot import fuzz
from momentroot.exact import UsageError
from momentroot.fuzz import _run_chunk, run_suite
from momentroot.generate import GenParams


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

    monkeypatch.setattr(fuzz, "ProcessPoolExecutor", InlinePool)
    params = GenParams(seed=31)
    pooled = run_suite("roundtrip", params, 3, jobs=10 ** 6).to_dict()
    serial = run_suite("roundtrip", params, 3).to_dict()
    assert len(started) == 1 and 1 <= started[0] <= 3
    del pooled["elapsed_seconds"], serial["elapsed_seconds"]
    assert pooled == serial


def test_violations_are_reported_not_raised():
    # a seed/suite pair over a tiny kappa range still yields a clean result
    summary = run_suite("iota", GenParams(seed=5, kappa_set=(2,)), 30)
    assert summary.ok


def test_theorems_with_wide_rational_bounds():
    # numerators/denominators up to 2**10, per the zero-counterexample sweep
    summary = run_suite("theorems", GenParams(seed=8, bound=1024), 10)
    assert summary.ok, [v.to_dict() for v in summary.violations]


def test_skipped_trials_are_reported():
    params = GenParams(seed=0)
    serial = run_suite("roundtrip", params, 13)
    assert [i for i, _ in serial.skipped] == [7, 12]
    assert all(reason for _, reason in serial.skipped)
    assert serial.trials == 13
    assert [s["index"] for s in serial.to_dict()["skipped"]] == [7, 12]
    parallel = run_suite("roundtrip", params, 13, jobs=2)
    assert parallel.skipped == serial.skipped
    # a theorems trial is skipped only when a hole with iota_s_star == 1
    # needs an order scan the guard refuses
    assert run_suite("theorems", params, 13).skipped == []
    refused = (107, "decide_root guard: C(70+4-1,4) exceeds 1000000")
    assert _run_chunk("theorems", GenParams(seed=1), 107, 108) == ([], [refused])
