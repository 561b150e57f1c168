"""Check that this checkout's CLI prints what another checkout's prints.

    python tools/compare_cli.py PARENT_CHECKOUT

Builds one list of CLI calls and runs it in one subprocess per checkout;
each subprocess imports momentroot from its own src/ and calls cli.main in
process with stdout captured.  The calls:

- analyze --holes --theorems --json, the same in text form, and decide, on
  DRAWS generator draws at kappa 2..8 for each of SEEDS and on their
  scale, drop and inject perturbations (tests/test_pushforward_kernel's);
- analyze --holes --theorems --json on every op of the benchmark's analyze
  corpus for each of BENCH_SEEDS (the corpus is built with this checkout's
  bench/);
- analyze --holes --theorems --json on the squares of nu = {1, 1 + 10**-e,
  10} for e in GAPS, whose holes next to 1 have a large iota_s_star;
- params on generator triples at kappa 2..8, and table --json;
- fuzz, every suite, on SEEDS (FUZZ_TRIALS trials of the theorems suite),
  and roundtrip and theorems again with --jobs 2, so the process-pool path
  is compared too; elapsed_seconds is masked.

Prints every call whose exit code or stdout differs, with its first
differing bytes, then one line per command with the number of equal and of
differing calls; exits 1 if any call differs.  This is a check against an
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
ELAPSED = re.compile(r'"elapsed_seconds": [-+.\deE]+')


def generator_calls(workdir: Path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_pushforward_kernel import perturbations

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
                    calls.append(["decide", *base])
                t1, t2, t3 = random_triple(params, index)
                calls.append(
                    ["params", "--theta1", format_rational(t1), "--theta2", format_rational(t2),
                     "--theta3", format_rational(t3), "--kappa", str(kappa)]
                )
        for suite, trials in (("theorems", FUZZ_TRIALS), ("roundtrip", 100), ("iota", 40), ("feasibility", 40)):
            calls.append(["fuzz", "--suite", suite, "--trials", str(trials), "--seed", str(seed)])
            if suite in ("theorems", "roundtrip"):
                calls.append(calls[-1] + ["--jobs", "2"])
    calls.append(["table", "--json"])
    calls.append(["table", "--max-m", "40", "--json"])
    return calls


def bench_calls(workdir: Path) -> list[list[str]]:
    """The analyze ops of the benchmark corpus, as built by this checkout."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus as corpus_mod
    from run import import_package

    mr = import_package()
    calls = []
    for seed in BENCH_SEEDS:
        seed_dir = workdir / f"bench{seed}"
        seed_dir.mkdir()
        for op in corpus_mod.build(mr, "analyze", seed, seed_dir).ops:
            calls.append(["analyze", "--measure", op.path, "--kappa", str(op.kappa), "--holes", "--theorems", "--json"])
    return calls


def narrow_gap_calls(workdir: Path) -> list[list[str]]:
    from momentroot.measures import AtomicMeasure, dump_measure, kappa_power_measure

    calls = []
    for e in GAPS:
        nu = AtomicMeasure.from_pairs([(1, 1), (1 + Fraction(1, 10 ** e), 1), (10, 1)])
        path = workdir / f"gap{e}.json"
        path.write_text(json.dumps(dump_measure(kappa_power_measure(nu, 2))), encoding="utf-8")
        calls.append(["analyze", "--measure", str(path), "--kappa", "2", "--holes", "--theorems", "--json"])
    return calls


def worker(src: str, jobs: str, out: str) -> int:
    """Run every call of the jobs file with the momentroot under src."""
    sys.path.insert(0, src)
    from momentroot import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "momentroot").resolve():
        raise SystemExit(f"imported momentroot from {cli.__file__}, not from {src}")
    results = []
    for argv in json.loads(Path(jobs).read_text()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        text = buf.getvalue()
        if argv[0] == "fuzz":
            text = ELAPSED.sub('"elapsed_seconds": _', text)
        results.append([code, text])
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
    for argv, (code, text), (parent_code, parent_text) in zip(calls, this, other):
        command = argv[0] + (" --json" if "--json" in argv else "")
        if code == parent_code and text == parent_text:
            equal[command] += 1
            continue
        differ[command] += 1
        at = first_difference(text, parent_text)
        print("differs:", " ".join(argv))
        print(f"  exit code {code} here, {parent_code} in the parent")
        print(f"  first differing byte {at}: here {text[at:at + 60]!r}")
        print(f"  {' ' * len(str(at))}                 parent {parent_text[at:at + 60]!r}")
    for command in sorted({*equal, *differ}):
        print(f"{command}: {equal[command]} calls equal, {differ[command]} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
