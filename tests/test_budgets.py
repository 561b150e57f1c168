"""Every CLI command finishes on small adversarial inputs.

Each case runs one CLI call in process under a wall budget of BUDGET_S
seconds, far above its expected time (at most 0.6 s on a 2-vCPU host), so
that a slow host cannot make it flaky, and asserts the call's exit code.
A call still running when the budget ends is stopped with OverBudget, but
only between bytecodes: SIGALRM's handler runs when the interpreter regains
control, so one long C-level big-integer operation (a huge power or
product) runs to its end first. Cases that spend their time in one such
operation need a child process and a join timeout instead.

Close support points (a hole whose ends are close, where iota is found by
exact powering to a large exponent) are not covered here yet: analyze and
params do not finish on them. The deepest feasible witnesses are checked
in tests/test_feasibility.py and tests/test_cli.py.
"""

import json
import signal
from contextlib import contextmanager

import pytest

from momentroot.cli import main

BUDGET_S = 10.0


class OverBudget(Exception):
    """Raised in the call that is still running when its budget ends; not an
    error type the CLI catches."""


@contextmanager
def wall_budget(seconds: float = BUDGET_S):
    def expire(signum, frame):
        raise OverBudget(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv, capsys):
    """main(argv) under the wall budget: (exit code, stdout, stderr)."""
    with wall_budget():
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def long_literals(tmp_path):
    """mu = {10**-4298, 1, 10**4298}, unit weights: literals of 4,299
    digits, just under CPython's 4,300-digit integer-string limit."""
    big = str(10 ** 4298)
    path = tmp_path / "long.json"
    atoms = [{"point": p, "weight": "1"} for p in (f"1/{big}", "1", big)]
    path.write_text(json.dumps({"atoms": atoms}))
    return str(path)


@pytest.mark.parametrize("kappa", [2, 16])
def test_decide_on_long_literals(long_literals, kappa, capsys):
    code, out, _ = run(["decide", "--measure", long_literals, "--kappa", str(kappa)], capsys)
    assert code == 3
    assert json.loads(out)["status"] == "certified_no"


@pytest.mark.parametrize("kappa", [2, 16])
def test_analyze_on_long_literals(long_literals, kappa, capsys):
    # a hole's endpoint radical has a coefficient beyond the limit on output
    argv = ["analyze", "--measure", long_literals, "--kappa", str(kappa), "--holes", "--theorems", "--json"]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: rational too long to print")


@pytest.mark.parametrize("triple", [("0", "1/2", "3"), ("1/3", "2", "2")], ids=["theta1=0", "theta2=theta3"])
def test_params_at_kappa_16(triple, capsys):
    theta1, theta2, theta3 = triple
    argv = ["params", "--theta1", theta1, "--theta2", theta2, "--theta3", theta3, "--kappa", "16"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == 16 and doc["iota_s"] is None


def test_fuzz_roundtrip_at_the_widest_sizes(capsys):
    argv = ["fuzz", "--suite", "roundtrip", "--trials", "20", "--max-atoms", "8", "--kappa-max", "8"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 20 and doc["skipped"] == []
