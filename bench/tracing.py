"""Spans around the calls that cross momentroot's layers, recorded from
outside the program.

While installed, the tracer replaces each traced function in every
momentroot module that binds it (found by identity, so a function imported
under its own name into another module is traced at that call site too)
with a wrapper that appends a span to an in-memory list.  Spans carry
name, start, end, parent and op id.  restore() puts every original back.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# span name -> (defining module, attribute)
TRACED = {
    "decide.decide_root": ("decide", "decide_root"),
    "decide.verify_representation": ("decide", "verify_representation"),
    "measures.kappa_power_measure": ("measures", "kappa_power_measure"),
    "measures.find_holes": ("measures", "find_holes"),
    "measures.load_measure": ("measures", "load_measure"),
    "holes.check_hole_forward": ("holes", "check_hole_forward"),
    "holes.check_hole_backward": ("holes", "check_hole_backward"),
    "holes.check_iota_hole_criteria": ("holes", "check_iota_hole_criteria"),
    "holes.check_top_of_support": ("holes", "check_top_of_support"),
    "holes.check_lower_support": ("holes", "check_lower_support"),
    "holes.check_root_order_membership": ("holes", "check_root_order_membership"),
    "holes.triple_params": ("holes", "triple_params"),
    "exact.floor_log_ratio": ("exact", "floor_log_ratio"),
    "exact.bigfloat_root": ("exact", "bigfloat_root"),
    "exact.format_rational": ("exact", "format_rational"),
    "exact.parse_rational": ("exact", "parse_rational"),
    "cli.main": ("cli", "main"),
    "fuzz.run_suite": ("fuzz", "run_suite"),
    "generate.random_atomic_measure": ("generate", "random_atomic_measure"),
}

CHECKERS = tuple(n for n in TRACED if n.startswith("holes."))
OP_SPAN = "bench.op"


def _probe_decision(args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    kind = "yes" if result.is_yes else result.certificate.kind.value
    positives = result.nu.support_size() if result.is_yes else 0
    return (len(mu.atoms), kind, positives)


PROBES = {
    "decide.decide_root": _probe_decision,
    "measures.kappa_power_measure": lambda a, k, r: len(r.atoms),
    "fuzz.run_suite": lambda a, k, r: (r.trials, len(r.violations)),
    **{n: (lambda a, k, r: r.applicable) for n in CHECKERS if n != "holes.triple_params"},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None
        self.error = None


class Tracer:
    def __init__(self, mr):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None
        self.originals = {name: getattr(getattr(mr, mod), attr) for name, (mod, attr) in TRACED.items()}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.error = type(exc).__name__
                raise
            span.end = clock()
            stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "momentroot" or n.startswith("momentroot.")]
        for name, original in self.originals.items():
            wrapper = self._wrap(name, original)
            attr = TRACED[name][1]
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def op_span(self, op_id):
        """The root span of one benchmark op."""
        self.op = op_id
        span = Span(OP_SPAN, time.perf_counter(), -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.op = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans, op_workload: dict, replay: dict, output_bytes: int, overhead: float) -> dict:
    """The per-layer metrics, each taken on the workloads whose end-to-end
    metric it should move (see README.md)."""
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    for span, st in zip(spans, selfs):
        key = (span.name, op_workload.get(span.op))
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + st

    def n(name, *workloads):
        return sum(calls.get((name, w), 0) for w in workloads)

    def s(name, *workloads):
        return sum(self_s.get((name, w), 0.0) for w in workloads)

    def where(name, *workloads):
        return [sp for sp in spans if sp.name == name and op_workload.get(sp.op) in workloads]

    decisions = [sp.info for sp in where("decide.decide_root", "decide") if sp.info]
    yes = [d for d in decisions if d[1] == "yes"]
    yes_candidates = sum(d[0] for d in yes)
    refused = [sp for sp in where("decide.decide_root", "decide_beyond_guard") if sp.error == "GuardExceeded"]
    both = ("theorems", "analyze")
    reports = [sp.info for name in CHECKERS if name != "holes.triple_params" for sp in where(name, *both)]
    reverify = sum(
        sp.end - sp.start
        for name in ("measures.kappa_power_measure", "decide.verify_representation")
        for sp in where(name, *both)
        if sp.parent >= 0 and spans[sp.parent].name in CHECKERS
    )
    suites = [sp.info for sp in where("fuzz.run_suite", "theorems") if sp.info]

    out = {
        "decide.decide_root.calls": (n("decide.decide_root", "decide"), "count"),
        "decide.decide_root.self_s": (s("decide.decide_root", "decide"), "s"),
        "decide.peel_s": (replay["peel_s"], "s"),
        "decide.verify_s": (replay["verify_s"], "s"),
        "decide.candidates": (sum(d[0] for d in decisions), "count"),
        "decide.positives": (sum(d[2] for d in yes), "count"),
        "decide.positive_ratio": (sum(d[2] for d in yes) / yes_candidates if yes_candidates else 0.0, "ratio"),
        "decide.yes": (len(yes), "count"),
    }
    for kind in ("negative_rho", "mass_mismatch", "coverage_violation"):
        out[f"decide.no.{kind}"] = (sum(1 for d in decisions if d[1] == kind), "count")
    out["decide.refused"] = (len(refused), "count")
    out["decide.verify_representation.calls"] = (n("decide.verify_representation", "analyze"), "count")
    out["decide.verify_representation.self_s"] = (s("decide.verify_representation", "analyze"), "s")
    out["measures.kappa_power_measure.calls"] = (n("measures.kappa_power_measure", "theorems"), "count")
    out["measures.kappa_power_measure.self_s"] = (s("measures.kappa_power_measure", "theorems"), "s")
    out["measures.kappa_power_measure.out_atoms"] = (
        sum(sp.info for sp in where("measures.kappa_power_measure", "theorems") if sp.info is not None),
        "count",
    )
    out["measures.find_holes.self_s"] = (s("measures.find_holes", "analyze"), "s")
    out["measures.load_measure.self_s"] = (s("measures.load_measure", "analyze"), "s")
    for name in CHECKERS:
        out[f"{name}.calls"] = (n(name, *both), "count")
        out[f"{name}.self_s"] = (s(name, *both), "s")
    out["holes.reverify_s"] = (reverify, "s")
    out["holes.applicable_ratio"] = (sum(1 for r in reports if r) / len(reports) if reports else 0.0, "ratio")
    for name in ("exact.floor_log_ratio", "exact.bigfloat_root", "exact.format_rational", "exact.parse_rational"):
        out[f"{name}.calls"] = (n(name, "analyze"), "count")
        out[f"{name}.self_s"] = (s(name, "analyze"), "s")
    out["cli.main.self_s"] = (s("cli.main", "analyze"), "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["fuzz.run_suite.self_s"] = (s("fuzz.run_suite", "theorems"), "s")
    out["fuzz.trials"] = (sum(t for t, _ in suites), "count")
    out["fuzz.violations"] = (sum(v for _, v in suites), "count")
    out["generate.random_atomic_measure.self_s"] = (s("generate.random_atomic_measure", "theorems"), "s")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out
