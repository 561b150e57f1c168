"""How each workload's op calls the program, and the oracle that checks it.

Ops look the program's functions up on their modules at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

from corpus import block_outcome, decision_outcome, recovers

WORKLOADS = ("decide", "decide_beyond_guard", "theorems", "analyze")


def execute(mr, op):
    """Run one op; returns what the oracle checks."""
    if op.workload in ("decide", "decide_beyond_guard"):
        return mr.decide.decide_root(op.mu, op.kappa)
    if op.workload == "theorems":
        return mr.fuzz.run_suite("theorems", mr.generate.GenParams(seed=op.seed), 1)
    argv = ["analyze", "--measure", op.path, "--kappa", str(op.kappa), "--holes", "--theorems", "--json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mr.cli.main(argv)
    return code, buf.getvalue()


def check(op, out) -> str | None:
    """None when the output is right, else why it is wrong."""
    if op.workload == "theorems":
        if out.trials != 1:
            return f"summary reports {out.trials} trials"
        if out.violations:
            return f"theorem violation: {out.violations[0].theorem}"
        return None
    if op.workload == "analyze":
        return _check_analyze(op, *out)
    kind, expected = op.expect
    if kind == "nu":
        if not out.is_yes:
            return f"expected a yes, got {decision_outcome(out)}"
        positives = {e.power: e.rho for e in out.nu.entries if e.rho > 0}
        if not recovers(out.nu.base_mass, positives, expected, op.kappa):
            return "representation does not reproduce the generating measure"
        return None
    got = decision_outcome(out)
    return None if got == expected else f"expected {expected}, got {got}"


def _check_analyze(op, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit status {code}"
    doc = json.loads(text)
    block = doc["decision"]
    kind, expected = op.expect
    if kind == "nu":
        if block["status"] != "certified_yes":
            return f"expected a yes, got {block_outcome(block)}"
        nu = block["nu"]
        positives = {Fraction(e["power"]): Fraction(e["rho"]) for e in nu["entries"] if e["rho"] != "0"}
        if not recovers(Fraction(nu["base_mass"]), positives, expected, op.kappa):
            return "representation does not reproduce the generating measure"
    elif block_outcome(block) != expected:
        return f"expected {expected}, got {block_outcome(block)}"
    violated = [r["theorem"] for r in doc.get("theorems", []) if r["violations"]]
    if violated:
        return f"theorem violation: {violated[0]}"
    return None
