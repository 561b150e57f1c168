"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus as C  # noqa: E402
import run  # noqa: E402
from tracing import TRACED, Span, Tracer, self_times  # noqa: E402
from workloads import execute  # noqa: E402


@pytest.fixture(scope="module")
def mr():
    return run.import_package()


@pytest.fixture
def workdir():
    path = run.ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:
        pass


@pytest.mark.parametrize("workload", ["decide", "decide_beyond_guard", "theorems", "analyze"])
def test_corpus_digest_is_deterministic_per_seed(mr, workdir, workload):
    digests = []
    for i, seed in enumerate((0, 0, 1)):
        sub = workdir / str(i)
        sub.mkdir()
        digests.append(C.build(mr, workload, seed, sub).digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_tail_percentile_rule():
    assert run.tail_percentile([]) is None
    assert run.tail_percentile(range(19)) is None  # p50 would leave only 9 beyond
    assert run.tail_percentile(range(20)) == (50, 9, 10)
    assert run.tail_percentile(range(99)) == (50, 49, 49)
    assert run.tail_percentile(range(100)) == (90, 89, 10)
    assert run.tail_percentile(reversed(range(1000))) == (99, 989, 10)
    assert run.tail_percentile(range(1009)) == (99, 998, 10)


def _span(start, end, parent=-1):
    span = Span("s", start, parent, 0)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, 0),
        _span(2.0, 4.0, 0),  # overlaps its sibling: [1, 4] is covered once
        _span(2.5, 3.5, 2),  # a grandchild counts against its own parent only
        _span(8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 4.0])


def _momentroot_modules():
    return [m for n, m in sys.modules.items() if n == "momentroot" or n.startswith("momentroot.")]


def test_wrappers_are_restored(mr):
    before = {(m.__name__, k): v for m in _momentroot_modules() for k, v in vars(m).items() if callable(v)}
    tracer = Tracer(mr)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert mr.decide.decide_root is not tracer.originals["decide.decide_root"]
            assert mr.holes.kappa_power_measure is not tracer.originals["measures.kappa_power_measure"]
            raise RuntimeError("an op that fails must not leave wrappers behind")
    after = {(m.__name__, k): v for m in _momentroot_modules() for k, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for name, (module, attr) in TRACED.items():
        assert getattr(getattr(mr, module), attr) is tracer.originals[name]


def _observe(out):
    """What a user sees from an op: the verdict, the fuzz summary or the
    CLI's exit status and JSON."""
    if isinstance(out, tuple):
        return out
    if hasattr(out, "violations"):
        doc = out.to_dict()
        doc.pop("elapsed_seconds")
        return json.dumps(doc, sort_keys=True)
    return C.decision_outcome(out)


def test_traced_run_gives_identical_outputs(mr, workdir):
    ops = []
    for workload, count in (("decide", 40), ("theorems", 4), ("analyze", 14)):
        sub = workdir / workload
        sub.mkdir()
        ops += C.build(mr, workload, 3, sub).ops[:count]
    plain = [_observe(execute(mr, op)) for op in ops]
    tracer = Tracer(mr)
    with tracer.installed():
        traced = []
        for i, op in enumerate(ops):
            with tracer.op_span(i):
                traced.append(_observe(execute(mr, op)))
    assert traced == plain
    names = {span.name for span in tracer.spans}
    assert {"decide.decide_root", "cli.main", "fuzz.run_suite", "holes.check_hole_backward"} <= names


@pytest.mark.parametrize("workload", ["decide", "analyze"])
def test_a_refusal_makes_the_run_incorrect(mr, workdir, workload, monkeypatch):
    ops = C.build(mr, workload, 0, workdir).ops[:40]
    monkeypatch.setattr(mr.decide, "MAX_MULTISETS", 3)
    tally = {}
    completed = sum(run.judge(op, *run.run_op(mr, op), tally) for op in ops)
    assert completed < len(ops)
    assert not run.outputs_correct(workload, tally)


def test_refusals_are_expected_only_beyond_the_guard():
    assert run.outputs_correct("decide_beyond_guard", {"refused": 5})
    for workload in ("decide", "theorems", "analyze"):
        assert not run.outputs_correct(workload, {"refused": 1})
    assert not run.outputs_correct("decide_beyond_guard", {"refused": 5, "wrong": 1})


def test_golden_pools_cover_every_certificate_kind():
    golden = C.load_golden()
    kinds = {o.split(":")[1] for e in golden["small"] + golden["large"] for o in e["outcomes"].values() if o.startswith("no:")}
    assert kinds == {"negative_rho", "mass_mismatch", "coverage_violation"}
