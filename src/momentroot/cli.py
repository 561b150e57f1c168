"""Command-line interface.

Exit codes: 0 success, 1 input/usage error, 2 invariant violation or
counterexample, 3 decide returned CertifiedNo (a successful run).  JSON
output renders every mathematically rational number as a rational string;
dyadic approximations appear only under an "approx" key together with
their precision in bits.

Each JSON shape has one writer.  A fixed shape (a decision, analyze's
measure, support, holes, triples and theorems blocks, a triple's
parameters) is written straight to text by one function, at the depth it
is printed at: a decision and a measure at the depth their caller asks
for, the other blocks of analyze as values of top-level keys.  A document
is a top-level join (_emit) that splices such text (a JsonText) as it
stands and writes every other value with json.dumps.  The output is
json.dumps(document, indent=2), byte for byte.
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
from .holes import (JsonText, RootPair, _IntSupport, _order_scans, _params_text, _reports_text, _triples,
                    _walk_holes, triple_params)
from .measures import _measure_text, load_measure

__all__ = ["main"]


def _emit(doc: dict) -> None:
    """Print json.dumps(doc, indent=2) for a doc with str keys: a JsonText
    value is spliced as it stands, any other value goes to json.dumps as a
    one-key document, whose key and value lines are those of doc.  The
    document is joined once, from its pieces."""
    pieces = []
    for key, value in doc.items():
        if type(value) is JsonText:
            pieces += (",\n  ", encode_basestring_ascii(key), ": ", value)
        else:
            pieces += (",\n  ", json.dumps({key: value}, indent=2)[4:-2])  # less "{\n  " and "\n}"
    pieces[0] = "{\n  "
    pieces.append("\n}")
    print("".join(pieces))


# The fixed-shape writers below need no escaping: rationals print as
# digits, "-" and "/", and the enum values as lower-case words and "_".


def _decision_text(d: RootDecision, pad: str = "") -> str:
    """The decision on a line indented by pad: its status and kappa, then
    nu (a yes) or the certificate (a no)."""
    n = "\n" + pad
    head = f'{{{n}  "status": "{d.verdict.value}",{n}  "kappa": {d.kappa},'
    if d.nu is None:
        cert = d.certificate
        return (
            f'{head}{n}  "certificate": {{{n}    "kind": "{cert.kind.value}",'
            f'{n}    "location": "{format_rational(cert.location)}"{n}  }}{n}}}'
        )
    base_mass = format_rational(d.nu.base_mass)
    entries = f",{n}      ".join([
        f'{{{n}        "power": "{format_rational(e.power)}",{n}        "rho": "{format_rational(e.rho)}"{n}      }}'
        for e in d.nu.entries
    ])
    return f'{head}{n}  "nu": {{{n}    "base_mass": "{base_mass}",{n}    "entries": [{n}      {entries}{n}    ]{n}  }}{n}}}'


def _support_text(table: _IntSupport) -> JsonText:
    return JsonText('[\n    "' + '",\n    "'.join(table.texts) + '"\n  ]')


def _holes_text(table: _IntSupport) -> JsonText:
    """The holes of the table: (0, x_0), the leading one, then (x_{i-1}, x_i)."""
    texts = table.texts
    return JsonText("[\n    " + ",\n    ".join([
        f'{{\n      "lower": "{lower}",\n      "upper": "{upper}",\n      "leading": {"false" if i else "true"}\n    }}'
        for i, (lower, upper) in enumerate(zip(["0", *texts], texts))
    ]) + "\n  ]")


def _cmd_analyze(args) -> int:
    mu = load_measure(args.measure)
    decision = decide_root(mu, args.kappa)
    table, holes = _IntSupport(mu), args.holes or args.theorems
    if args.json:
        doc = {
            "measure": JsonText(_measure_text(mu, table.texts, "  ")),
            "kappa": args.kappa,
            "support": _support_text(table),
            "decision": JsonText(_decision_text(decision, "  ")),
        }
        if holes:  # the text report prints no triples
            doc["holes"] = _holes_text(table)
            doc["triples"] = _triples(table, args.kappa)
    reports, refused = [], []
    if args.theorems and decision.is_yes:
        pair = RootPair(mu, decision.nu, args.kappa)
        scans, refused = _order_scans(table, max(args.kappa, 4), {args.kappa: decision})
        reports = _walk_holes(pair, scans, table)
    note = "no certified root; hole checkers skipped" if args.theorems and not decision.is_yes else None
    exit_code = 2 if any(r.violations for r in reports) else 0
    if not args.json:
        _print_analysis(args.kappa, table, decision, holes, reports, refused, note)
        return exit_code
    if args.theorems:
        if note:
            doc["theorems_note"] = note
        doc["theorems"] = _reports_text(reports)
        if refused:  # interior holes: i > 0
            doc["theorems_skipped"] = [
                {"lower": table.texts[i - 1], "upper": table.texts[i], "reason": reason} for i, reason in refused
            ]
    _emit(doc)
    return exit_code


def _print_analysis(kappa, table, decision, holes, reports, refused, note):
    """The text report, printed once it is whole; the hole lines when holes
    is true."""
    texts = table.texts
    lines = [f"kappa = {kappa}", "support: " + " ".join(texts), f"decision: {decision.verdict.value}"]
    if decision.certificate is not None:
        cert = decision.certificate
        lines.append(f"  certificate: {cert.kind.value} at {format_rational(cert.location)}")
    if decision.nu is not None:
        lines.append(f"  base_mass = {format_rational(decision.nu.base_mass)}")
        powers = [format_rational(e.power) for e in decision.nu.entries if e.rho != 0]
        lines.append("  root support powers: " + " ".join(powers))
    if holes:
        lines.append(f"hole (0, {texts[0]}) (leading)")
        lines += [f"hole ({lower}, {upper})" for lower, upper in zip(texts, texts[1:])]
    for rep in reports:
        status = "VIOLATED" if rep.violations else "ok"
        extra = "" if rep.applicable else " [not applicable]"
        lines.append(f"theorem check: {rep.theorem}: {status}{extra}")
    for i, reason in refused:
        lines.append(f"theorem check skipped: hole ({texts[i - 1]}, {texts[i]}): {reason}")
    if note:
        lines.append(note)
    print("\n".join(lines))


def _cmd_decide(args) -> int:
    mu = load_measure(args.measure)
    decision = decide_root(mu, args.kappa)
    print(_decision_text(decision))
    return 0 if decision.is_yes else 3


def _cmd_params(args) -> int:
    p = triple_params(
        parse_rational(args.theta1),
        parse_rational(args.theta2),
        parse_rational(args.theta3),
        args.kappa,
    )
    print(_params_text(p))
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
    params = GenParams(
        seed=args.seed,
        max_atoms=args.max_atoms,
        bound=args.bound,
        # GenParams checks the range; 9 stands for any larger value so that
        # no huge tuple is built before that check
        kappa_set=tuple(range(2, min(args.kappa_max, 9) + 1)),
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError, so that main
    prints one error: line and returns 1; argparse would exit with 2, the
    code of a violation.  Its subparsers are _Parsers too."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--bound", type=int, default=64, help="bound on drawn numerators/denominators; iota uses <= 64")
    p.add_argument("--jobs", type=int, default=1, help="worker processes; 1 runs the trials in this process")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("fixtures", help="run the golden examples")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
