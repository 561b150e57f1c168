"""momentroot benchmark: closed-loop workloads with oracle-checked outputs.

    python3 bench/run.py --workload decide --seed 0 --seconds 40 --trace 0

One client in one process runs the workload's ops back to back (jobs=1)
for --seconds seconds and checks every output.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
replays a fixed slice of every workload's corpus under the tracer and
reports per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus as corpus_mod  # noqa: E402
from tracing import TRACED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check, execute  # noqa: E402

SETUP_REPS = 5
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
MODULES = ("exact", "measures", "decide", "holes", "generate", "fuzz", "cli")
# Workloads whose ops are all refused at the commit the benchmark was
# defined on; anywhere else a refusal makes the run incorrect.
REFUSAL_EXPECTED = ("decide_beyond_guard",)


class BenchError(RuntimeError):
    pass


def import_package():
    """Import momentroot afresh from ROOT/src (dropping any loaded copy)."""
    src = ROOT / "src"
    if not (src / "momentroot" / "__init__.py").is_file():
        raise BenchError(f"no momentroot sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "momentroot" or n.startswith("momentroot.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("momentroot")
    if Path(pkg.__file__).resolve().parent != (src / "momentroot").resolve():
        raise BenchError(f"imported momentroot from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"momentroot.{m}") for m in MODULES})


def tail_percentile(latencies):
    """(percentile, value, ops beyond it) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND completed ops above its nearest-rank
    value, or None when there is none."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(Fraction(str(p)) * n / 100)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    return best


def run_op(mr, op):
    """(output, failure kind or None, detail) of one op."""
    try:
        return execute(mr, op), None, ""
    except mr.exact.GuardExceeded as exc:
        return None, "refused", str(exc)
    except Exception as exc:  # an op that raises is counted, not fatal
        return None, "exception", f"{type(exc).__name__}: {exc}"


def judge(op, out, failure, detail, tally):
    """Fold one op's outcome into tally; returns True when it completed."""
    if failure is None:
        detail = check(op, out)
        failure = None if detail is None else "wrong"
    if failure is None:
        return True
    tally[failure] = tally.get(failure, 0) + 1
    expected = failure == "refused" and op.workload in REFUSAL_EXPECTED
    if not expected and "first_error" not in tally:
        tally["first_error"] = f"{op.label}: {detail}"
    return False


def outputs_correct(workload: str, tally: dict) -> bool:
    """No wrong output and no exception; no refusal either, except on a
    workload whose ops are all refused today."""
    if "wrong" in tally or "exception" in tally:
        return False
    return workload in REFUSAL_EXPECTED or "refused" not in tally


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build (and write) the corpus SETUP_REPS
    times; returns the last package, corpus and the median set-up time."""
    times = []
    mr = corpus = None
    for rep in range(SETUP_REPS):
        repdir = workdir / f"setup{rep}"
        repdir.mkdir(parents=True)
        mr = corpus = None  # one corpus alive at a time, for peak_rss_mb
        gc.collect()
        start = time.perf_counter()
        mr = import_package()
        corpus = corpus_mod.build(mr, workload, seed, repdir)
        times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(workdir / f"setup{rep - 1}")
    return mr, corpus, statistics.median(times)


def timed_loop(mr, ops, seconds: float):
    """Closed loop, one client: the next op starts when the previous one
    returns.  The oracle runs between ops and is not counted in the wall
    time."""
    latencies, tally = [], {}
    attempted, checking = 0, 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        op = ops[attempted % len(ops)]
        attempted += 1
        t0 = time.perf_counter()
        out, failure, detail = run_op(mr, op)
        t1 = time.perf_counter()
        if judge(op, out, failure, detail, tally):
            latencies.append(t1 - t0)
        checking += time.perf_counter() - t1
    wall = time.perf_counter() - start - checking
    return attempted, latencies, tally, wall


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args, workdir: Path):
    mr, corpus, setup_s = setup(args.workload, args.seed, workdir)
    for op in corpus.ops[:3]:  # warm-up, untimed
        run_op(mr, op)
    attempted, latencies, tally, wall = timed_loop(mr, corpus.ops, args.seconds)
    failed = attempted - len(latencies)
    tail = tail_percentile(latencies)
    metrics = {"ops_per_s": (len(latencies) / wall, "1/s")}
    if latencies:
        metrics["latency_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
    if tail is not None:
        metrics["latency_tail_ms"] = (1e3 * tail[1], "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print(f"corpus {len(corpus.ops)} ops, digest {corpus.digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:16s} {value:.6g} {unit}")
    if tail is None:
        print("latency_tail_ms  absent: fewer than "
              f"{TAIL_MIN_BEYOND} completed ops beyond any percentile")
    else:
        print(f"  tail is p{tail[0]} of {len(latencies)} completed ops, {tail[2]} beyond it")
    print(f"fail_frac        {failed / attempted:.6g} ({failed} of {attempted} attempted: "
          + ", ".join(f"{k} {v}" for k, v in sorted(tally.items()) if k != "first_error") + ")")
    if "first_error" in tally:
        print(f"first failure: {tally['first_error']}")
    record = {
        "env": environment(args),
        "corpus_digest": corpus.digest,
        "completed": len(latencies),
        "fail_frac": failed / attempted,
        "tail_percentile": tail[0] if tail else None,
        "tail_beyond": tail[2] if tail else None,
    }
    print(json.dumps(record))
    return outputs_correct(args.workload, tally), attempted, failed, metrics


def traced_pass(mr, corpora: dict):
    """Run every corpus's trace slice under the tracer.  Returns the
    tracer, op id -> workload, per-workload (attempted, failed, tally,
    busy seconds), the peel/verify replay and the CLI output bytes."""
    tracer = Tracer(mr)
    op_workload, per_workload = {}, {}
    replay = {"peel_s": 0.0, "verify_s": 0.0}
    verify = tracer.originals["decide.verify_representation"]
    output_bytes = 0
    with tracer.installed():
        for workload, corpus in corpora.items():
            tally, attempted, completed, busy = {}, 0, 0, 0.0
            for op in corpus_mod.trace_slice(corpus):
                op_id = len(op_workload)
                op_workload[op_id] = workload
                first = len(tracer.spans)
                with tracer.op_span(op_id) as root:
                    out, failure, detail = run_op(mr, op)
                busy += root.end - root.start
                attempted += 1
                completed += judge(op, out, failure, detail, tally)
                if workload == "analyze" and failure is None:
                    output_bytes += len(out[1].encode())
                if workload == "decide" and failure is None and out.is_yes:
                    call = next(
                        sp for sp in tracer.spans[first:] if sp.name == "decide.decide_root" and sp.parent == first
                    )
                    t0 = time.perf_counter()
                    if not verify(op.mu, out.nu):
                        tally["wrong"] = tally.get("wrong", 0) + 1
                    spent = time.perf_counter() - t0
                    replay["verify_s"] += spent
                    replay["peel_s"] += (call.end - call.start) - spent
            per_workload[workload] = (attempted, attempted - completed, tally, busy)
    return tracer, op_workload, per_workload, replay, output_bytes


def tracing_overhead(mr, ops, reps: int = 2) -> float:
    """1 - (traced ops/s) / (untraced ops/s) on the same ops, each side
    timed reps times, alternating, best run kept."""
    plain = traced = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        for op in ops:
            run_op(mr, op)
        plain = min(plain, time.perf_counter() - start)
        with Tracer(mr).installed():
            start = time.perf_counter()
            for op in ops:
                run_op(mr, op)
            traced = min(traced, time.perf_counter() - start)
    return 1 - plain / traced


def per_layer(args, workdir: Path):
    mr, corpus, _ = setup(args.workload, args.seed, workdir)
    corpora = {}
    for workload in WORKLOADS:
        if workload == args.workload:
            corpora[workload] = corpus
        else:
            sub = workdir / f"corpus-{workload}"
            sub.mkdir()
            corpora[workload] = corpus_mod.build(mr, workload, args.seed, sub)
    overhead = tracing_overhead(mr, corpus_mod.trace_slice(corpus))
    tracer, op_workload, per_workload, replay, output_bytes = traced_pass(mr, corpora)
    restored = all(
        getattr(getattr(mr, mod), attr) is tracer.originals[name]
        for name, (mod, attr) in TRACED.items()
    )
    attempted, failed, _, _ = per_workload[args.workload]
    metrics = layer_metrics(tracer.spans, op_workload, replay, output_bytes, overhead)

    for workload, (n, bad, t, busy) in per_workload.items():
        print(f"traced {workload:20s} {n:4d} ops  {busy:8.3f} s  failed {bad}  "
              + ", ".join(f"{k} {v}" for k, v in sorted(t.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({"env": environment(args), "spans": len(tracer.spans), "wrappers_restored": restored}))
    correct = all(outputs_correct(w, t) for w, (_, _, t, _) in per_workload.items())
    return restored and correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 1 is the held-out seed")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(args, workdir)
    except (BenchError, corpus_mod.CorpusDrift, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
