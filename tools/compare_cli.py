"""Check that this checkout's CLI prints what another checkout's prints.

    python tools/compare_cli.py PARENT_CHECKOUT

Builds one list of CLI calls and runs it in one subprocess per checkout;
each subprocess imports momentroot from its own src/ and calls cli.main in
process with stdout captured.  The calls:

- analyze --holes --theorems --json, the same in text form, analyze
  --holes --json and in text form (holes without theorems), analyze
  --theorems in text form (theorem lines without hole lines), analyze
  --json (no holes key) and decide, on DRAWS generator draws at kappa 2..8
  for each of SEEDS and on their scale, drop and inject perturbations
  (tests/test_pushforward_kernel's), and analyze --theorems --json on those
  that are certified no (a theorems_note and an empty theorems list);
- analyze --holes --theorems --json on every op of the benchmark's analyze
  corpus, and decide on every op of its decide corpus (up to 466 atoms),
  for each of BENCH_SEEDS (the corpora are built with this checkout's
  bench/);
- analyze --holes --theorems --json, analyze --holes --json and analyze
  --holes in text form on the squares of nu = {1, 1 + 10**-e, 10} for e
  in GAPS, whose holes next to 1 have a large iota_s_star;
- analyze --holes --theorems --json and the same in text form on the
  kappa-th powers of the geometric nu = {1, r, ..., r**4} for r in RATIOS
  and kappa 2..8, whose iota ratios are exact powers and whose endpoint
  powers tie with support points;
- decide and analyze --holes --theorems --json on malformed measure files
  (a negative point, a negative weight, a zero point, a duplicate point)
  and on unreadable ones (a directory, a file that is not UTF-8, 5,000
  nested arrays), whose error lines may be worded differently but must
  exit alike;
- params on generator triples at kappa 2..8, on triples with theta1 = 0
  or theta2 = theta3 (zero radicals, null iotas), on triples out of order
  (theta1 = theta2, theta2 > theta3, theta1 < 0), and on TIES: triples
  with theta2**2 = theta1*theta3 exactly and off by one unit over their
  common denominator either way, the three branches of the iota pair;
  table --json up to --max-m 100000, and fixtures;
- feasible --witness on every pair with N <= 12 at most one level deep
  (N <= 3 or M <= 4N - 6), whose witnesses the greedy exponent rule builds
  as the x_2**2/(2*x_N) rule did, and on one infeasible pair;
- fuzz, every suite, on SEEDS (FUZZ_TRIALS trials of the theorems suite),
  and roundtrip and theorems again with --jobs 2, so the process-pool path
  is compared too; elapsed_seconds is masked.

Prints every call whose exit code or stdout differs (stderr is not compared), with its first
differing bytes and, when the exit codes differ, each side's first line of
stderr (a refusal's message), then one line per command with the number of
equal and of differing calls; exits 1 if any call differs.  A call that
ends in an uncaught exception counts as exit code 1, as it would from the
command line, with the exception as its stderr line.  This is a check against an
older version of the code, not a test: nothing in tests/ runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KAPPAS = range(2, 9)
SEEDS = (0, 1)  # generator and fuzz seeds
DRAWS = 12  # generator draws per seed and kappa
BENCH_SEEDS = (0, 1)
FUZZ_TRIALS = 200  # trials of the theorems suite
GAPS = (2, 3, 4)  # at e = 5 one call takes seconds
RATIOS = (2, Fraction(3, 2))
# (c1, c2, c3, D): theta_i = c_i/D with c2**2 - c1*c3 = 0, then +1, then -1
TIES = ((1, 2, 4, 1), (4, 6, 9, 7), (3, 300, 30000, 10 ** 6),
        (2, 3, 4, 1), (999, 1000, 1001, 13), (10 ** 9 - 1, 10 ** 9, 10 ** 9 + 1, 10 ** 9),
        (1, 3, 10, 1), (5, 7, 10, 3), (1, 1000, 1000001, 1000))
ELAPSED = re.compile(r'"elapsed_seconds": [-+.\deE]+')


def generator_calls(workdir: Path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_pushforward_kernel import perturbations

    from momentroot.decide import decide_root
    from momentroot.exact import GuardExceeded, format_rational
    from momentroot.generate import GenParams, random_atomic_measure, random_triple
    from momentroot.measures import dump_measure, kappa_power_measure

    calls = []
    for seed in SEEDS:
        for kappa in KAPPAS:
            params = GenParams(seed=seed, max_atoms=4 if kappa <= 4 else 3, kappa_set=(kappa,))
            for index in range(DRAWS):
                nu = random_atomic_measure(params, index)
                try:
                    mu = kappa_power_measure(nu, kappa)
                except GuardExceeded:
                    continue
                for variant in perturbations(mu, nu, kappa):
                    path = workdir / f"m{len(calls):05d}.json"
                    path.write_text(json.dumps(dump_measure(variant)), encoding="utf-8")
                    base = ["--measure", str(path), "--kappa", str(kappa)]
                    calls.append(["analyze", *base, "--holes", "--theorems", "--json"])
                    calls.append(["analyze", *base, "--holes", "--theorems"])
                    calls.append(["analyze", *base, "--holes", "--json"])
                    calls.append(["analyze", *base, "--holes"])
                    calls.append(["analyze", *base, "--theorems"])
                    calls.append(["analyze", *base, "--json"])
                    calls.append(["decide", *base])
                    if not decide_root(variant, kappa).is_yes:
                        calls.append(["analyze", *base, "--theorems", "--json"])
                t1, t2, t3 = random_triple(params, index)
                calls.append(
                    ["params", "--theta1", format_rational(t1), "--theta2", format_rational(t2),
                     "--theta3", format_rational(t3), "--kappa", str(kappa)]
                )
    for kappa in KAPPAS:
        # theta1 = 0 or theta2 = theta3, then triples the reader refuses (exit 1)
        for t1, t2, t3 in (("0", "1/2", "3"), ("0", "4", "9"), ("1/3", "2", "2"), ("0", "2", "2"),
                           ("2", "2", "3"), ("1", "3", "2"), ("-1", "2", "3")):
            calls.append(["params", "--theta1", t1, "--theta2", t2, "--theta3", t3, "--kappa", str(kappa)])
        for *cs, den in TIES:
            t1, t2, t3 = (format_rational(Fraction(c, den)) for c in cs)
            calls.append(["params", "--theta1", t1, "--theta2", t2, "--theta3", t3, "--kappa", str(kappa)])
    for seed in SEEDS:
        for suite, trials in (("theorems", FUZZ_TRIALS), ("roundtrip", 100), ("iota", 40), ("feasibility", 40)):
            calls.append(["fuzz", "--suite", suite, "--trials", str(trials), "--seed", str(seed)])
            if suite in ("theorems", "roundtrip"):
                calls.append(calls[-1] + ["--jobs", "2"])
    calls.append(["table", "--json"])
    calls.append(["table", "--max-m", "40", "--json"])
    calls.append(["table", "--max-m", "100000", "--json"])
    calls.append(["fixtures"])
    return calls


def bench_calls(workdir: Path) -> list[list[str]]:
    """The analyze and decide ops of the benchmark corpus, as built by this
    checkout; each decide op's measure is written once per op label."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as corpus_mod
    from run import import_package

    from momentroot.measures import dump_measure

    mr = import_package()
    calls = []
    for seed in BENCH_SEEDS:
        seed_dir = workdir / f"bench{seed}"
        seed_dir.mkdir()
        for op in corpus_mod.build(mr, "analyze", seed, seed_dir).ops:
            calls.append(["analyze", "--measure", op.path, "--kappa", str(op.kappa), "--holes", "--theorems", "--json"])
        written = {}
        for op in corpus_mod.build(mr, "decide", seed, seed_dir).ops:
            path = written.get(op.label)
            if path is None:
                path = written[op.label] = seed_dir / f"decide{len(written):04d}.json"
                path.write_text(json.dumps(dump_measure(op.mu)), encoding="utf-8")
            calls.append(["decide", "--measure", str(path), "--kappa", str(op.kappa)])
    return calls


def narrow_gap_calls(workdir: Path) -> list[list[str]]:
    from momentroot.measures import AtomicMeasure, dump_measure, kappa_power_measure

    calls = []
    for e in GAPS:
        nu = AtomicMeasure.from_pairs([(1, 1), (1 + Fraction(1, 10 ** e), 1), (10, 1)])
        path = workdir / f"gap{e}.json"
        path.write_text(json.dumps(dump_measure(kappa_power_measure(nu, 2))), encoding="utf-8")
        base = ["analyze", "--measure", str(path), "--kappa", "2", "--holes"]
        calls += [base + ["--theorems", "--json"], base + ["--json"], base]
    return calls


def geometric_calls(workdir: Path) -> list[list[str]]:
    from momentroot.measures import AtomicMeasure, dump_measure, kappa_power_measure

    calls = []
    for r in RATIOS:
        nu = AtomicMeasure.from_pairs([(Fraction(r) ** j, j + 1) for j in range(5)])
        for kappa in KAPPAS:
            path = workdir / f"geometric{len(calls):03d}.json"
            path.write_text(json.dumps(dump_measure(kappa_power_measure(nu, kappa))), encoding="utf-8")
            base = ["analyze", "--measure", str(path), "--kappa", str(kappa), "--holes", "--theorems"]
            calls += [base + ["--json"], base]
    return calls


def feasible_calls() -> list[list[str]]:
    calls = [["feasible", "11", "4", "--witness"]]
    for n in range(1, 13):
        for m in range(2 * n - 1, n * (n + 1) // 2 + 1):
            if n <= 3 or m <= 4 * n - 6:
                calls.append(["feasible", str(m), str(n), "--witness"])
    return calls


MALFORMED = {
    "negative_point": [("-1", "1"), ("2", "1")],
    "negative_weight": [("1", "1"), ("2", "-1")],
    "zero_point": [("0", "1"), ("2", "1")],
    "duplicate_point": [("2", "1"), ("1", "1"), ("2", "3")],
}


def malformed_calls(workdir: Path) -> list[list[str]]:
    calls = []
    for name, atoms in MALFORMED.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"atoms": [{"point": p, "weight": w} for p, w in atoms]}), encoding="utf-8")
        base = ["--measure", str(path), "--kappa", "2"]
        calls += [["decide", *base], ["analyze", *base, "--holes", "--theorems", "--json"]]
    (workdir / "directory.json").mkdir()
    (workdir / "not_utf8.json").write_bytes(b"\xff\xfe" + json.dumps({"atoms": []}).encode())
    (workdir / "nested.json").write_text('{"atoms": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    for name in ("directory", "not_utf8", "nested"):
        base = ["--measure", str(workdir / f"{name}.json"), "--kappa", "2"]
        calls += [["decide", *base], ["analyze", *base, "--holes", "--theorems", "--json"]]
    return calls


def worker(src: str, jobs: str, out: str) -> int:
    """Run every call of the jobs file with the momentroot under src."""
    sys.path.insert(0, src)
    from momentroot import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "momentroot").resolve():
        raise SystemExit(f"imported momentroot from {cli.__file__}, not from {src}")
    results = []
    for argv in json.loads(Path(jobs).read_text()):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            uncaught = None
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
            except Exception as exc:  # a traceback, which exits 1 from the command line
                code, uncaught = 1, f"uncaught {type(exc).__name__}: {exc}"
        text = buf.getvalue()
        if argv[0] == "fuzz":
            text = ELAPSED.sub('"elapsed_seconds": _', text)
        results.append([code, text, uncaught or err.getvalue().partition("\n")[0]])
    Path(out).write_text(json.dumps(results))
    return 0


def first_difference(a: str, b: str) -> int:
    n = min(len(a), len(b))
    return next((i for i in range(n) if a[i] != b[i]), n)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        return worker(*argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the other checkout (a directory with src/momentroot)")
    args = ap.parse_args(argv)
    parent = Path(args.parent).resolve()
    if not (parent / "src" / "momentroot" / "cli.py").is_file():
        ap.error(f"no src/momentroot under {parent}")
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        work = Path(tmp)
        calls = generator_calls(work)
        calls += bench_calls(work)
        calls += narrow_gap_calls(work)
        calls += geometric_calls(work)
        calls += malformed_calls(work)
        calls += feasible_calls()
        jobs = work / "jobs.json"
        jobs.write_text(json.dumps(calls))
        procs = {
            name: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(root / "src"), str(jobs), str(work / f"{name}.json")]
            )
            for name, root in (("this", ROOT), ("parent", parent))
        }
        for name, proc in procs.items():
            if proc.wait() != 0:
                print(f"the {name} checkout's worker failed (exit status {proc.returncode})")
                return 1
        this = json.loads((work / "this.json").read_text())
        other = json.loads((work / "parent.json").read_text())
    equal, differ = Counter(), Counter()
    for argv, (code, text, err), (parent_code, parent_text, parent_err) in zip(calls, this, other):
        command = argv[0] + (" --json" if "--json" in argv else "")
        if code == parent_code and text == parent_text:
            equal[command] += 1
            continue
        differ[command] += 1
        at = first_difference(text, parent_text)
        print("differs:", " ".join(argv))
        print(f"  exit code {code} here, {parent_code} in the parent")
        if code != parent_code:
            print(f"  first stderr line: here {err!r}, parent {parent_err!r}")
        print(f"  first differing byte {at}: here {text[at:at + 60]!r}")
        print(f"  {' ' * len(str(at))}                 parent {parent_text[at:at + 60]!r}")
    for command in sorted({*equal, *differ}):
        print(f"{command}: {equal[command]} calls equal, {differ[command]} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
