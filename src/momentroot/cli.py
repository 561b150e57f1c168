"""Command-line interface.

Exit codes: 0 success, 1 input/usage error, 2 invariant violation or
counterexample, 3 decide returned CertifiedNo (a successful run).  JSON
output renders every mathematically rational number as a rational string;
dyadic approximations appear only under an "approx" key together with
their precision in bits.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .decide import RootDecision, decide_root
from .exact import UsageError, format_rational, parse_rational
from .feasibility import feasible, n_minus, n_plus, witness
from .fixtures import run_all
from .fuzz import SUITES, run_suite
from .generate import GenParams
from .holes import JsonText, RootPair, _order_scans, _reports_text, _triples, _walk_holes, triple_params
from .measures import dump_measure, find_holes, load_measure

__all__ = ["main"]


def decision_to_dict(d: RootDecision) -> dict:
    out = {"status": d.verdict.value, "kappa": d.kappa}
    if d.nu is not None:
        out["nu"] = {
            "base_mass": format_rational(d.nu.base_mass),
            "entries": [
                {"power": format_rational(e.power), "rho": format_rational(e.rho)}
                for e in d.nu.entries
            ],
        }
    if d.certificate is not None:
        out["certificate"] = {
            "kind": d.certificate.kind.value,
            "location": format_rational(d.certificate.location),
        }
    return out


def _emit(doc):
    print(_dumps(doc))


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte.

    An indent sends json.dumps to its pure-Python encoder; this walks the
    types the CLI emits (str-keyed dicts, lists, str, int, bool, None and
    JsonText) and quotes strings with json's C encoder.  Any other value
    goes to json.dumps, re-indented to its depth.
    """
    out: list[str] = []
    _encode(doc, "\n", out)
    return "".join(out)


def _encode(value, newline: str, out: list[str]) -> None:
    """Append value's JSON text at the depth whose line break is newline.

    Re-indenting json.dumps's text or a JsonText by replacing each line
    break is safe because JSON escapes a line break inside a string.  A
    nonempty list or dict encodes its str, int, None and bool items in the
    loop, and recurses only into the other items.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is list and value:
        sep = "[" + inner
        for item in value:
            item_kind = type(item)
            if item_kind is str:
                out.append(sep + encode_basestring_ascii(item))
            elif item_kind is int:
                out.append(sep + int.__repr__(item))
            elif item is None:
                out.append(sep + "null")
            elif item_kind is bool:
                out.append(sep + ("true" if item else "false"))
            else:
                out.append(sep)
                _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
        return
    if kind is dict and value:
        mark = len(out)
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                del out[mark:]
                break
            head = sep + encode_basestring_ascii(key) + ": "
            item_kind = type(item)
            if item_kind is str:
                out.append(head + encode_basestring_ascii(item))
            elif item_kind is int:
                out.append(head + int.__repr__(item))
            elif item is None:
                out.append(head + "null")
            elif item_kind is bool:
                out.append(head + ("true" if item else "false"))
            else:
                out.append(head)
                _encode(item, inner, out)
            sep = "," + inner
        else:
            out.append(newline + "}")
            return
    if kind is JsonText:
        text = value
    elif (kind is list or kind is dict) and not value:
        text = "[]" if kind is list else "{}"
    else:
        text = json.dumps(value, indent=2)
    out.append(text.replace("\n", newline))


def _holes_dict(holes) -> list[dict]:
    return [
        {
            "lower": format_rational(h.lower),
            "upper": format_rational(h.upper),
            "leading": h.leading,
        }
        for h in holes
    ]


def _cmd_analyze(args) -> int:
    mu = load_measure(args.measure)
    decision = decide_root(mu, args.kappa)
    doc = {
        "measure": dump_measure(mu),
        "kappa": args.kappa,
        "support": [format_rational(x) for x in mu.support],
        "decision": decision_to_dict(decision),
    }
    if args.holes or args.theorems:
        holes = find_holes(mu)
        doc["holes"] = _holes_dict(holes)
        if args.json:  # the text report prints no triples
            doc["triples"] = _triples(mu, args.kappa)
    exit_code = 0
    reports = []
    if args.theorems:
        skipped = []
        if decision.is_yes:
            pair = RootPair(mu, decision.nu, args.kappa)
            scans, refused = _order_scans(mu, holes, max(args.kappa, 4))
            reports = _walk_holes(pair, holes, scans)
            skipped = [
                {"lower": format_rational(h.lower), "upper": format_rational(h.upper), "reason": reason}
                for h, reason in refused
            ]
            if any(not r.ok for r in reports):
                exit_code = 2
        else:
            doc["theorems_note"] = "no certified root; hole checkers skipped"
        if args.json:  # the text report reads the reports themselves
            doc["theorems"] = _reports_text(reports)
        if skipped:
            doc["theorems_skipped"] = skipped
    if args.json:
        _emit(doc)
    else:
        _print_analysis(doc, reports)
    return exit_code


def _print_analysis(doc, reports):
    print(f"kappa = {doc['kappa']}")
    print("support:", " ".join(doc["support"]))
    print("decision:", doc["decision"]["status"])
    if "certificate" in doc["decision"]:
        cert = doc["decision"]["certificate"]
        print(f"  certificate: {cert['kind']} at {cert['location']}")
    if "nu" in doc["decision"]:
        entries = doc["decision"]["nu"]["entries"]
        positive = [e for e in entries if e["rho"] != "0"]
        print(f"  base_mass = {doc['decision']['nu']['base_mass']}")
        print("  root support powers:", " ".join(e["power"] for e in positive))
    for h in doc.get("holes", []):
        tag = " (leading)" if h["leading"] else ""
        print(f"hole ({h['lower']}, {h['upper']}){tag}")
    for rep in reports:
        status = "ok" if rep.ok else "VIOLATED"
        extra = "" if rep.applicable else " [not applicable]"
        print(f"theorem check: {rep.theorem}: {status}{extra}")
    for s in doc.get("theorems_skipped", []):
        print(f"theorem check skipped: hole ({s['lower']}, {s['upper']}): {s['reason']}")
    if "theorems_note" in doc:
        print(doc["theorems_note"])


def _cmd_decide(args) -> int:
    mu = load_measure(args.measure)
    decision = decide_root(mu, args.kappa)
    _emit(decision_to_dict(decision))
    return 0 if decision.is_yes else 3


def _cmd_params(args) -> int:
    p = triple_params(
        parse_rational(args.theta1),
        parse_rational(args.theta2),
        parse_rational(args.theta3),
        args.kappa,
    )
    _emit(p.to_dict())
    return 0


def _cmd_feasible(args) -> int:
    doc = {"M": args.M, "N": args.N, "feasible": feasible(args.M, args.N)}
    if args.witness and doc["feasible"]:
        doc["witness"] = witness(args.M, args.N).to_dict()
    _emit(doc)
    return 0


def _cmd_table(args) -> int:
    if not 1 <= args.max_m <= 10 ** 5:  # three lists of max_m ints are built
        raise UsageError("--max-m must be in [1, 100000]")
    ms = list(range(1, args.max_m + 1))
    lows = [n_minus(m) for m in ms]
    highs = [n_plus(m) for m in ms]
    if args.json:
        _emit({"M": ms, "n_minus": lows, "n_plus": highs})
    else:
        width = max(len(str(args.max_m)), 2) + 1
        print("M      " + "".join(f"{m:>{width}}" for m in ms))
        print("n_minus" + "".join(f"{v:>{width}}" for v in lows))
        print("n_plus " + "".join(f"{v:>{width}}" for v in highs))
    return 0


def _cmd_fuzz(args) -> int:
    kappa_top = min(args.kappa_max, 8)
    params = GenParams(
        seed=args.seed,
        max_atoms=args.max_atoms,
        bound=args.bound,
        kappa_set=tuple(range(2, kappa_top + 1)),
    )
    summary = run_suite(args.suite, params, args.trials, jobs=args.jobs)
    _emit(summary.to_dict())
    return 0 if summary.ok else 2


def _cmd_fixtures(_args) -> int:
    rows = run_all()
    failed = False
    for name, ok, message in rows:
        if ok:
            print(f"PASS {name}")
        else:
            failed = True
            print(f"FAIL {name}: {message}")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentroot",
        description="Exact analysis of kappa-th roots of finitely atomic "
        "Stieltjes moment sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decision, support, holes and theorem checks")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--holes", action="store_true")
    p.add_argument("--theorems", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decide", help="root decision as JSON (exit 3 on CertifiedNo)")
    p.add_argument("--measure", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("params", help="hole endpoint parameters for a triple")
    p.add_argument("--theta1", required=True)
    p.add_argument("--theta2", required=True)
    p.add_argument("--theta3", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("feasible", help="pairwise-product feasibility of (M, N)")
    p.add_argument("M", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("table", help="n_minus / n_plus table")
    p.add_argument("--max-m", type=int, default=15)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("fuzz", help="run a fuzz suite (exit 2 on violations)")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa-max", type=int, default=4)
    p.add_argument("--max-atoms", type=int, default=5)
    p.add_argument("--bound", type=int, default=64)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("fixtures", help="run the golden examples")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
