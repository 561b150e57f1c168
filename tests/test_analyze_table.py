"""analyze's triples, radical rendering and JSON emitter against
the direct per-hole computation, and the report of refused order scans."""

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from momentroot import cli, holes
from momentroot.cli import main
from momentroot.decide import decide_root
from momentroot.exact import GuardExceeded, format_rational
from momentroot.fuzz import _run_chunk
from momentroot.generate import GenParams, random_atomic_measure
from momentroot.holes import (
    RootPair,
    check_hole_backward,
    check_iota_hole_criteria,
    check_root_order_membership,
    triple_params,
)
from momentroot.measures import AtomicMeasure, dump_measure, find_holes, kappa_power_measure
from test_pushforward_kernel import perturbations


def analyze(tmp_path, mu, kappa, *flags):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(dump_measure(mu)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["analyze", "--measure", str(path), "--kappa", str(kappa), *flags])
    return code, buf.getvalue()


def reference_blocks(mu, kappa):
    """triples, theorems and skipped holes computed hole by hole, with a
    fresh pair for every checker call and a fresh order scan per hole."""
    theta3 = mu.max_point
    holes = find_holes(mu)
    triples = [triple_params(h.lower, h.upper, theta3, kappa).to_dict() for h in holes]
    decision = decide_root(mu, kappa)
    reports, skipped = [], []
    if decision.is_yes:
        for h in holes:
            reports.append(check_hole_backward(RootPair(mu, decision.nu, kappa), h.lower, h.upper))
            reports.append(check_iota_hole_criteria(RootPair(mu, decision.nu, kappa), h.lower, h.upper))
            if 0 < h.lower and h.upper < theta3:
                try:
                    reports.append(check_root_order_membership(mu, h.lower, h.upper, max(kappa, 4)))
                except GuardExceeded as exc:
                    bounds = {"lower": format_rational(h.lower), "upper": format_rational(h.upper)}
                    skipped.append({**bounds, "reason": str(exc)})
    theorems = json.loads(json.dumps([r.to_dict() for r in reports]))
    return triples, theorems, skipped


@pytest.mark.parametrize("kappa", range(2, 9))
def test_analyze_blocks_match_direct_computation(tmp_path, kappa):
    params = GenParams(seed=100 + kappa, max_atoms=4, kappa_set=(kappa,))
    compared = 0
    for index in range(10):
        nu = random_atomic_measure(params, index)
        if kappa > 4 and len(nu.atoms) > 2:
            continue  # kappa-th powers of larger nu lie beyond the multiset guard
        mu = kappa_power_measure(nu, kappa)
        for variant in perturbations(mu, nu, kappa):
            try:
                triples, theorems, skipped = reference_blocks(variant, kappa)
            except GuardExceeded:
                assert analyze(tmp_path, variant, kappa, "--holes", "--theorems", "--json")[0] == 1
                continue
            code, out = analyze(tmp_path, variant, kappa, "--holes", "--theorems", "--json")
            doc = json.loads(out)
            assert doc["triples"] == triples
            assert doc["theorems"] == theorems
            assert doc.get("theorems_skipped", []) == skipped
            assert code == (2 if any(r["violations"] for r in theorems) else 0)
            compared += 1
    assert compared > 0


def test_equal_radicals_keep_their_own_rendering(tmp_path):
    # In hole (1, 2) of supp mu = {1, 2, 4}, alpha_dag = (1/2)*4**(1/2) and
    # beta_dag = 1**(1/2) are both 1; each prints its own coeff and radicand.
    mu = AtomicMeasure.from_pairs([(1, 1), (2, 2), (4, 1)])
    doc = json.loads(analyze(tmp_path, mu, 2, "--holes", "--json")[1])
    hole = doc["triples"][1]
    assert (hole["theta1"], hole["theta2"]) == ("1", "2")
    assert hole["alpha_dag"] == {"coeff": "1/2", "radicand": "4", "index": 2, "rational": "1"}
    assert hole["beta_dag"] == {"coeff": "1", "radicand": "1", "index": 2, "rational": "1"}
    assert doc["triples"] == [triple_params(a, b, 4, 2).to_dict() for a, b in [(0, 1), (1, 2), (2, 4)]]


# A kappa=2 power of 12 atoms: 78 atoms, so the kappa=4 order scan needs
# C(81, 4) > 10**6 multisets, and the hole (649/17, 100) has iota_s_star 1.
NU_78 = AtomicMeasure.from_pairs(
    [(F(p, 17), 1) for p in (19, 23, 29, 31, 37, 41, 43, 47, 53, 59)] + [(10, 1), (11, 1)]
)


def test_refused_order_scan_is_reported(tmp_path):
    mu = kappa_power_measure(NU_78, 2)
    assert len(mu.atoms) == 78
    code, out = analyze(tmp_path, mu, 2, "--theorems", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorems_skipped"] == [
        {"lower": "649/17", "upper": "100", "reason": "decide_root guard: C(78+4-1,4) exceeds 1000000"}
    ]
    _, theorems, skipped = reference_blocks(mu, 2)
    assert doc["theorems"] == theorems and doc["theorems_skipped"] == skipped
    assert list(doc)[-1] == "theorems_skipped"
    code, text = analyze(tmp_path, mu, 2, "--theorems")
    assert code == 0
    assert "theorem check skipped: hole (649/17, 100): decide_root guard" in text


def test_no_skipped_key_without_a_refusal(tmp_path):
    mu = AtomicMeasure.from_pairs([(1, 1), (2, 2), (4, 1)])
    doc = json.loads(analyze(tmp_path, mu, 2, "--holes", "--theorems", "--json")[1])
    assert doc["theorems"] and "theorems_skipped" not in doc


def test_walk_enters_each_checker_by_its_public_name(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("check_hole_backward", "check_iota_hole_criteria", "check_root_order_membership"):
        def counted(*args, _name=name, _checker=getattr(holes, name), **kwargs):
            calls[_name] += 1
            return _checker(*args, **kwargs)

        monkeypatch.setattr(holes, name, counted)
    mu = AtomicMeasure.from_pairs([(1, 1), (2, 2), (4, 1)])  # holes (0, 1), (1, 2), (2, 4)
    analyze(tmp_path, mu, 2, "--theorems", "--json")
    assert calls == {"check_hole_backward": 3, "check_iota_hole_criteria": 3, "check_root_order_membership": 1}
    # a fuzz trial whose order scan is refused is skipped before the other hole checks
    calls.clear()
    assert _run_chunk("theorems", GenParams(seed=1), 107, 108)[1]
    assert calls["check_root_order_membership"] > 0 and calls["check_hole_backward"] == 0


# ---------------------------------------------------------------------------
# the JSON emitter
# ---------------------------------------------------------------------------


EDGE_DOCS = [
    {},
    [],
    "",
    0,
    None,
    True,
    {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]},
    {"text": "héllo ☃ 𝄞 ÿ  ", "quotes": '"\'\\/', "control": "\x00\x01\n\r\t\x1f\x7f"},
    {"big": [2 ** 64, 2 ** 64 + 1, -(2 ** 70), 10 ** 40]},
    {"flags": [True, False, None], "nested": {"x": [None, {"y": False}]}},
    {"é\n\"key": 1},
    # values the CLI does not emit go to json.dumps at their depth
    {"float": 1.5, "tuple": (1, [2, {"z": (3,)}]), "deep": {"keys": {1: [1, 2], None: {}}}},
    [1.0, (), {2: "two"}, [float("inf")]],
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_emitter_matches_json_dumps_on_edge_docs(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_emitter_matches_json_dumps_for_every_subcommand(tmp_path, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_emit", docs.append)
    nu = AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (F(5, 2), 1)])
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(dump_measure(kappa_power_measure(nu, 3))))
    runs = [
        ["analyze", "--measure", str(path), "--kappa", "3", "--holes", "--theorems", "--json"],
        ["analyze", "--measure", str(path), "--kappa", "2", "--holes", "--theorems", "--json"],
        ["decide", "--measure", str(path), "--kappa", "3"],
        ["decide", "--measure", str(path), "--kappa", "2"],
        ["params", "--theta1", "1/3", "--theta2", "2", "--theta3", "5", "--kappa", "3"],
        ["feasible", "6", "3", "--witness"],
        ["table", "--json"],
        ["fuzz", "--suite", "theorems", "--trials", "14", "--seed", "0"],
        ["fuzz", "--suite", "roundtrip", "--trials", "13", "--seed", "0"],
    ]
    for argv in runs:
        main(argv)
    assert len(docs) == len(runs)
    assert docs[-1]["skipped"]  # a fuzz summary with skipped trials
    for doc in docs:
        assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    assert main(["table", "--max-m", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == [1, 2, 3]
    assert main(["table", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["M"]) == 15
    assert cli.build_parser() is not cli.build_parser()
