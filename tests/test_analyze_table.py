"""analyze's triples, theorem reports, decision, radical rendering and
top-level JSON join against the direct per-hole computation and the dict
forms of tests/oracles.py, and the report of refused order scans."""

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from momentroot import cli, decide, fuzz, holes, measures
from momentroot.cli import main
from momentroot.decide import decide_root
from momentroot.exact import GuardExceeded, format_rational
from momentroot.fuzz import _run_chunk
from momentroot.generate import GenParams, random_atomic_measure, random_root_instance
from momentroot.holes import (
    Claim,
    JsonText,
    RootPair,
    TheoremReport,
    check_hole_backward,
    check_hole_forward,
    check_iota_hole_criteria,
    check_lower_support,
    check_root_order_membership,
    check_top_of_support,
    iota_dagger_relations,
    iota_relations,
    iota_star_witness,
    kappa_dependence_scan,
    ordering_report,
    triple_params,
)
from momentroot.measures import AtomicMeasure, dump_measure, find_holes, kappa_power_measure
from oracles import decision_dict, measure_dict, report_dict, triple_dict
from test_pushforward_kernel import perturbations


def spliced(value) -> str:
    """json.dumps(value, indent=2) as the value of a top-level key, the
    form a JsonText holds: every line after the first indented by two
    spaces (a line break inside a JSON string is escaped)."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


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
    triples = [triple_dict(triple_params(h.lower, h.upper, theta3, kappa)) for h in holes]
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
    theorems = [report_dict(r) for r in reports]
    return triples, theorems, skipped


@pytest.mark.parametrize("kappa", range(2, 9))
def test_analyze_blocks_match_direct_computation(tmp_path, kappa):
    params = GenParams(seed=100 + kappa, max_atoms=4, kappa_set=(kappa,))
    compared = 0
    for index in range(10):
        nu = random_atomic_measure(params, index)
        if kappa > 4 and len(nu.atoms) > 2:
            continue  # their many holes make the reference walk take seconds
        mu = kappa_power_measure(nu, kappa)
        for variant in perturbations(mu, nu, kappa):
            triples, theorems, skipped = reference_blocks(variant, kappa)
            code, out = analyze(tmp_path, variant, kappa, "--holes", "--theorems", "--json")
            doc = json.loads(out)
            assert doc["measure"] == measure_dict(variant) and doc["kappa"] == kappa
            assert doc["support"] == [format_rational(x) for x in variant.support]
            assert doc["decision"] == decision_dict(decide_root(variant, kappa))
            holes_dicts = [
                {"lower": format_rational(h.lower), "upper": format_rational(h.upper), "leading": h.leading}
                for h in find_holes(variant)
            ]
            assert doc["holes"] == holes_dicts
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
    assert doc["triples"] == [triple_dict(triple_params(a, b, 4, 2)) for a, b in [(0, 1), (1, 2), (2, 4)]]


def triples_cases(kappa):
    """(points, whether theta3 is a perfect kappa-th power): the points are,
    and are not, perfect powers too, so a point's root and theta3's root can
    disagree.  {1, 2, 4} holds the equal radicals of the test above."""
    return [
        ([1, 2, 4], kappa == 2),
        ([F(1, 3 ** kappa), 2, 7, 5 ** kappa], True),
        ([F(2, 3), 1, 3 ** kappa, 2 * 5 ** kappa], False),
        ([F(2, 3) ** kappa], True),
        ([F(2, 3)], False),
    ]


@pytest.mark.parametrize("kappa", range(2, 17))
def test_triples_match_triple_params(kappa):
    zero = {"coeff": "0", "radicand": "1", "index": kappa, "rational": "0"}
    for points, perfect in triples_cases(kappa):
        mu = AtomicMeasure.from_pairs([(x, 1) for x in points])
        theta3 = mu.max_point
        text = holes._triples(holes._IntSupport(mu), kappa)
        got = json.loads(text)
        params = [triple_params(h.lower, h.upper, theta3, kappa) for h in find_holes(mu)]
        want = [triple_dict(p) for p in params]
        assert json.dumps(got) == json.dumps(want), points  # key order too
        assert text == spliced(want), points  # and the layout the top-level join splices
        for p, d in zip(params, want):  # params prints the same shape at depth 0
            assert holes._params_text(p) == json.dumps(d, indent=2), points
            assert p.to_dict() == d
        assert got[0]["alpha"] == got[0]["beta_dag"] == zero
        # the hole ending at theta3: alpha_dag = (theta3/theta3) * theta3**(1/kappa) = gamma
        assert got[-1]["alpha_dag"] == got[-1]["gamma"]
        assert (got[-1]["gamma"]["rational"] is not None) == perfect


def report_cases():
    """Reports of every checker, whose data hold every kind of value a
    report carries, and the edge cases of the fixed-shape layout."""
    nu = AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (F(5, 2), 1)])
    mu = kappa_power_measure(nu, 3)
    pair = RootPair(mu, nu, 3)
    irrational = AtomicMeasure.from_pairs([(2, 1)])  # the square of {2**(1/2)}
    scanned = kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (5, 1), (6, 1)]), 4)
    reports = []
    for h in find_holes(mu):
        reports.append(check_hole_backward(pair, h.lower, h.upper))
        reports.append(check_iota_hole_criteria(pair, h.lower, h.upper))  # the outer holes: inapplicable, a note
        reports.append(check_top_of_support(pair, h.lower, h.upper, mu.max_point))
    reports += [
        ordering_report(triple_params(F(1, 27), 1, F(125, 8), 3)),  # data hold a TripleParams
        iota_relations(F(1, 9), F(1, 3), 1),
        iota_dagger_relations(F(1, 9), F(1, 3), 1, 3),
        check_hole_forward(pair, F(1, 2), F(3, 2)),  # data hold irrational Radicals
        check_hole_forward(pair, F(1, 2), F(3, 2), canonicalize=True),  # and a dict of Radicals
        check_lower_support(pair),
        check_lower_support(RootPair(irrational, decide_root(irrational, 2).nu, 2)),
        check_root_order_membership(scanned, 216, 625, 4),  # J = [2, 4], an int-keyed membership dict
        check_root_order_membership(mu, 1, F(25, 12), 4),  # iota_s_star == 3: no claims, a note and data
        kappa_dependence_scan(*iota_star_witness(3), 6),  # approximate claims, a list of Fractions, a str
        kappa_dependence_scan(0, F(1, 2), 1, 4),  # iota_s is None
        TheoremReport(
            "hand-built \u2014 report",
            (
                Claim("violated", (("h1", True), ("h2", True)), "c", False),
                Claim("unevaluated", (("h", False),), "c", None),
                Claim('q"\\', (), "c", False, approximate=True),
            ),
            note='a "quoted" \\ back\\slash, caf\u00e9 \u2603 and a\nnew line',
            data={"list": [], "dict": {}, "text": "\u00e9\n"},
        ),
    ]
    assert any(not r.claims and r.note and r.data for r in reports)
    assert any(c.approximate for r in reports for c in r.claims)
    assert any(r.violations for r in reports)
    return reports


def emitted(doc):
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit(doc)
    return buf.getvalue()


def reports_text(reports):
    return holes._reports_text(reports)


def test_reports_text_is_json_dumps_of_to_dict():
    # to_dict reads the text back; the oracle builds the dicts field by field
    reports = report_cases()
    dicts = [report_dict(r) for r in reports]
    for r, d in zip(reports, dicts):
        assert reports_text([r]) == spliced([d]), r.theorem
        assert r.to_dict() == d, r.theorem
    assert reports_text(reports) == spliced(dicts)
    assert reports_text([]) == "[]"
    # a data value that is no rational, radical, triple or JSON value is refused
    with pytest.raises(TypeError, match="^object is not a report data value$"):
        TheoremReport("t", data={"values": [object()]}).to_dict()
    # the top-level join splices the text as it stands
    for theorems, want in ((reports, dicts), ([], [])):
        doc = {"theorems": reports_text(theorems), "b": 1}
        assert emitted(doc) == json.dumps({"theorems": want, "b": 1}, indent=2) + "\n"


def decision_cases():
    """A yes decision and one no decision of each certificate kind."""
    measures = {
        "yes": [(1, 1), (2, 2), (4, 1)],
        "negative_rho": [(1, 1), (2, 2), (4, F(1, 2)), (8, 2), (16, 1)],
        "mass_mismatch": [(1, 1), (2, 1)],
        "coverage_violation": [(1, 1), (2, 2), (3, 2), (4, 1), (9, 1)],
    }
    return {name: decide_root(AtomicMeasure.from_pairs(pairs), 2) for name, pairs in measures.items()}


def test_decision_text_matches_the_oracle(tmp_path, capsys):
    cases = decision_cases()
    assert cases["yes"].is_yes
    assert all(d.certificate.kind.value == name for name, d in cases.items() if name != "yes")
    for d in cases.values():
        assert cli._decision_text(d) == json.dumps(decision_dict(d), indent=2)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(dump_measure(AtomicMeasure.from_pairs([(1, 1), (2, 2), (4, 1)]))))
    assert main(["decide", "--measure", str(path), "--kappa", "2"]) == 0
    assert capsys.readouterr().out == json.dumps(decision_dict(cases["yes"]), indent=2) + "\n"


# A kappa=2 power of 12 atoms: 78 atoms, and the hole (649/17, 100) has
# iota_s_star 1.  Its order scan pushes at most the 12 atoms the kappa=2
# decision pushes, so it runs.
NU_78 = AtomicMeasure.from_pairs(
    [(F(p, 17), 1) for p in (19, 23, 29, 31, 37, 41, 43, 47, 53, 59)] + [(10, 1), (11, 1)]
)


def test_refused_order_scan_is_reported(tmp_path, monkeypatch):
    mu = kappa_power_measure(NU_78, 2)
    assert len(mu.atoms) == 78
    code, out = analyze(tmp_path, mu, 2, "--theorems", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "theorems_skipped" not in doc
    assert doc["theorems"] == reference_blocks(mu, 2)[1]
    # The kappa=4 power of {1, 5, 6} pushes 3 atoms (15 multisets); the
    # hole (216, 625) has iota_s_star 1, and its order scan decides mu at
    # order 2, where mu is the square of a 6-atom measure (21 multisets).
    mu = kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (5, 1), (6, 1)]), 4)
    monkeypatch.setattr(decide, "MAX_MULTISETS", 20)
    code, out = analyze(tmp_path, mu, 4, "--theorems", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorems_skipped"] == [
        {"lower": "216", "upper": "625", "reason": "21 multisets of size 2 over 6 elements exceed guard 20"}
    ]
    _, theorems, skipped = reference_blocks(mu, 4)
    assert doc["theorems"] == theorems and doc["theorems_skipped"] == skipped
    assert list(doc)[-1] == "theorems_skipped"
    code, text = analyze(tmp_path, mu, 4, "--theorems")
    assert code == 0
    assert "theorem check skipped: hole (216, 625): 21 multisets of size 2 over 6 elements" in text


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
    monkeypatch.setattr(decide, "MAX_MULTISETS", 50)
    calls.clear()
    assert _run_chunk("theorems", GenParams(seed=1), 107, 108)[1]
    assert calls["check_root_order_membership"] > 0 and calls["check_hole_backward"] == 0


# Every claims tuple the walk's two checkers can intern: a theorem and
# check_hole_backward's 8 or check_iota_hole_criteria's 7 bools.
TUPLE_BOUND = 2 ** 8 + 2 ** 7


def test_walk_claims_are_built_once_per_process(tmp_path, capsys):
    wide = [
        (kappa_power_measure(AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (2, 1), (3, 3), (6, 1)]), 4), 4),
        (kappa_power_measure(NU_78, 2), 2),
        (kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (F(3, 2), 2), (2, 1), (5, 1), (7, 4)]), 3), 3),
    ]
    for mu, kappa in wide:
        assert analyze(tmp_path, mu, kappa, "--holes", "--theorems", "--json")[0] == 0
    assert main(["fuzz", "--suite", "theorems", "--trials", "20", "--seed", "0"]) == 0
    capsys.readouterr()
    assert 0 < len(holes._CLAIM_TUPLES) <= TUPLE_BOUND
    for key, claims in holes._CLAIM_TUPLES.items():
        assert key[0] == claims.theorem in ("hole transfer mu->nu", "iota hole criteria")
        assert all(type(fact) is bool for fact in key[1:]) and len(key) == (9 if key[0].startswith("hole") else 8)
    # holes with equal facts get the very same claims tuple, whose head and
    # violations their reports' text and violations read
    shared = 0
    for mu, kappa in wide:
        pair = RootPair(mu, decide_root(mu, kappa).nu, kappa)
        first = {}
        for h in find_holes(mu):
            facts = holes._checked_facts(pair, h.lower, h.upper, True)
            reports = [check_hole_backward(pair, h.lower, h.upper), check_iota_hole_criteria(pair, h.lower, h.upper)]
            seen = first.setdefault(facts, reports)
            assert all(a.claims is b.claims for a, b in zip(seen, reports))
            shared += seen is not reports
            for r in reports:
                assert r.to_dict() == report_dict(r)
                assert reports_text([r]) == spliced([report_dict(r)])
                assert r.violations is r.claims.violations if r.claims else r.violations == ()
    assert shared > 0
    # a Claim with text built at run time, as the fuzz harness builds one, stays out of the table
    table = dict(holes._CLAIM_TUPLES)
    failed = fuzz._fail("roundtrip", f"certifies {len(table)}", "decide_root must certify")
    assert type(failed.claims) is tuple and failed.violations == failed.claims
    assert holes._CLAIM_TUPLES == table
    assert all(c is not failed.claims[0] for claims in table.values() for c in claims)


def test_reports_with_claims_not_interned_write_their_own_head():
    mu = kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (5, 1), (6, 1)]), 4)
    pair = RootPair(mu, decide_root(mu, 4).nu, 4)
    points = mu.support
    interned = check_hole_backward(pair, points[0], points[1])
    assert type(interned.claims) is holes._Claims
    plain = tuple(interned.claims)
    scan = next(
        r for r in (check_root_order_membership(mu, a, b, 4) for a, b in zip(points, points[1:])) if r.claims
    )
    reports = [
        scan,  # the order scan's equivalence claim
        fuzz._fail("roundtrip", "certifies", "decide_root over a kappa-power measure must certify", index=3),
        TheoremReport(interned.theorem, plain, data=interned.data),  # equal claims, in a plain tuple
        TheoremReport("another theorem", interned.claims),  # interned claims, another theorem
        TheoremReport(interned.theorem, interned.claims, applicable=False),
        TheoremReport(interned.theorem, interned.claims, note="a note"),
    ]
    for r in reports:
        assert reports_text([r]) == spliced([report_dict(r)]), r.theorem
        assert r.to_dict() == report_dict(r)
    assert reports_text(reports) == spliced([report_dict(r) for r in reports])


def test_order_scans_decide_mu_once_per_order(tmp_path, monkeypatch):
    calls = Counter()

    def counted(mu, kappa, _decide=decide_root):
        calls[kappa] += 1
        return _decide(mu, kappa)

    monkeypatch.setattr(cli, "decide_root", counted)
    monkeypatch.setattr(holes, "decide_root", counted)
    # kappa = 4 with an iota_s_star = 1 hole: the scan reuses analyze's
    # decision at 4; kappa = 2 with two such holes: they share theirs
    cases = [
        (kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (5, 1), (6, 1)]), 4), 4, 1),
        (kappa_power_measure(AtomicMeasure.from_pairs([(F(4, 15), 1), (F(21, 20), 1), (F(20, 13), 1),
                                                       (F(59, 37), 1)]), 2), 2, 2),
    ]
    for mu, kappa, scanned in cases:
        assert holes._IntSupport(mu).iota_stars.count(1) == scanned
        calls.clear()
        code, text = analyze(tmp_path, mu, kappa, "--holes", "--theorems", "--json")
        assert code == 0 and calls == {2: 1, 3: 1, 4: 1}
        theorems = json.loads(text)["theorems"]
        assert sum(r["theorem"] == "membership across root orders" and r["applicable"] for r in theorems) == scanned


def refuse_holes(monkeypatch):
    """Make every Hole construction fail, so that a run that prints its
    output built none."""
    def refused(self):
        raise AssertionError("a Hole was built")

    monkeypatch.setattr(measures.Hole, "__post_init__", refused)
    with pytest.raises(AssertionError):
        find_holes(AtomicMeasure.from_pairs([(1, 1)]))


def test_analyze_builds_no_hole(tmp_path, monkeypatch):
    # the second measure's hole (216, 625) has its order scan refused
    nu = AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (F(5, 2), 1)])
    scanned = kappa_power_measure(AtomicMeasure.from_pairs([(1, 1), (5, 1), (6, 1)]), 4)
    monkeypatch.setattr(decide, "MAX_MULTISETS", 20)
    cases = []
    for mu, kappa in ((kappa_power_measure(nu, 3), 3), (scanned, 4)):
        # what the Hole-based reference prints, built before the patch
        triples, theorems, skipped = reference_blocks(mu, kappa)
        holes_found = find_holes(mu)
        hole_dicts = [
            {"lower": format_rational(h.lower), "upper": format_rational(h.upper), "leading": h.leading}
            for h in holes_found
        ]
        lines = [
            f"hole ({d['lower']}, {d['upper']})" + (" (leading)" if d["leading"] else "") for d in hole_dicts
        ] + [
            f"theorem check: {r['theorem']}: {'VIOLATED' if r['violations'] else 'ok'}"
            + ("" if r["applicable"] else " [not applicable]")
            for r in theorems
        ] + [f"theorem check skipped: hole ({d['lower']}, {d['upper']}): {d['reason']}" for d in skipped]
        support = [format_rational(x) for x in mu.support]
        cases.append((mu, kappa, support, hole_dicts, triples, theorems, skipped, lines))
    assert cases[1][6]  # a refused scan is reported
    refuse_holes(monkeypatch)
    for mu, kappa, support, hole_dicts, triples, theorems, skipped, lines in cases:
        code, out = analyze(tmp_path, mu, kappa, "--holes", "--theorems", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["support"] == support and doc["holes"] == hole_dicts
        assert doc["triples"] == triples and doc["theorems"] == theorems
        assert doc.get("theorems_skipped", []) == skipped
        code, text = analyze(tmp_path, mu, kappa, "--holes", "--theorems")
        assert code == 0 and f"support: {' '.join(support)}" in text.splitlines()
        assert [line for line in text.splitlines() if line.startswith(("hole ", "theorem check"))] == lines


def test_theorems_trials_build_no_hole(monkeypatch):
    # the paired holes and nu's holes each trial checks are those of
    # find_holes, and the trials return what they return unpatched
    params, trials = GenParams(seed=0), 40
    want = _run_chunk("theorems", params, 0, trials)
    assert want == ([], [])  # no violation, and no trial skipped
    seen = {"check_top_of_support": [], "check_hole_forward": []}
    for index in range(trials):
        nu, kappa = random_root_instance(params, index)
        mu = kappa_power_measure(nu, kappa)
        interior = find_holes(mu)[1:]
        seen["check_top_of_support"] += [(a.lower, a.upper, b.upper) for a, b in zip(interior, interior[1:])]
        if len(mu.atoms) >= 2:
            seen["check_top_of_support"].append((interior[-1].lower, interior[-1].upper, interior[-1].upper))
        for h in find_holes(nu):
            seen["check_hole_forward"] += [(h.lower, h.upper), (h.lower, h.upper)]
    calls = {name: [] for name in seen}
    for name in seen:
        def recorded(pair, *args, _name=name, _checker=getattr(fuzz, name), **kwargs):
            calls[_name].append(args)
            return _checker(pair, *args, **kwargs)

        monkeypatch.setattr(fuzz, name, recorded)
    refuse_holes(monkeypatch)
    assert _run_chunk("theorems", params, 0, trials) == want
    assert calls == seen and all(seen.values())


# ---------------------------------------------------------------------------
# the top-level JSON join (cli._emit)
# ---------------------------------------------------------------------------


SPLICED = JsonText(spliced([{"x": "1/2", "y": None, "z": {"w": "two\nlines"}}, []]))
EDGE_DOCS = [
    {"empty_list": [], "empty_dict": {}},
    {"\u00e9\n\"key\\": 1},  # a key that needs escaping
    {"text": "h\u00e9llo \u2603 \U0001d11e \u00ff  "},
    {"control": "\x00\x01\n\r\t\x1f\x7f"},
    {"quotes": '"\'\\/', "empty": ""},
    {"big": [2 ** 64, 2 ** 64 + 1, -(2 ** 70), 10 ** 40], "zero": 0},
    {"flags": [True, False, None], "nested": {"x": [None, {"y": False}]}},
    {"deep": {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]}},
    {"none": None, "true": True, "false": False},
    # JSON text, written as the value of a top-level key, is spliced as it
    # stands, a line break escaped inside one of its strings included;
    # deeper, json.dumps writes it as the str it is
    {"spliced": SPLICED},
    {"spliced_empty": JsonText("[]"), "after": 1},
    {"a": SPLICED, "b": [SPLICED], "c": SPLICED},
    {"before": {"k": "v"}, "spliced": JsonText('{\n    "k": "v\\n"\n  }')},
    # values the CLI does not print from a fixed-shape writer go to json.dumps
    {"float": 1.5, "elapsed_seconds": 0.125},
    {"tuple": (1, [2, {"z": (3,)}])},
    {"int_keys": {1: [1, 2], 2: {}}},
    {"list_of_dicts": [{"index": 7, "reason": "21 multisets \u2014 guard"}, {}]},
]


def parsed(doc):
    """doc with each JsonText value replaced by the value it encodes."""
    return {key: json.loads(v) if type(v) is JsonText else v for key, v in doc.items()}


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_emitter_matches_json_dumps_on_edge_docs(doc):
    # the top-level join prints json.dumps(doc, indent=2), JsonText spliced
    assert emitted(doc) == json.dumps(parsed(doc), indent=2) + "\n"


def test_emitter_matches_json_dumps_for_every_subcommand(tmp_path, monkeypatch, capsys):
    # the printed text, so that the spliced triples block is compared too
    nu = AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (F(5, 2), 1)])
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(dump_measure(kappa_power_measure(nu, 3))))
    wide = kappa_power_measure(AtomicMeasure.from_pairs([(F(1, 3), 1), (1, 2), (2, 1), (3, 3), (6, 1)]), 4)
    assert len(wide.atoms) == 35
    wide_path = tmp_path / "wide.json"
    wide_path.write_text(json.dumps(dump_measure(wide)))
    runs = [
        ["analyze", "--measure", str(path), "--kappa", "3", "--holes", "--theorems", "--json"],
        ["analyze", "--measure", str(path), "--kappa", "2", "--holes", "--theorems", "--json"],
        ["analyze", "--measure", str(wide_path), "--kappa", "4", "--holes", "--theorems", "--json"],
        ["decide", "--measure", str(path), "--kappa", "3"],
        ["decide", "--measure", str(path), "--kappa", "2"],
        ["params", "--theta1", "1/3", "--theta2", "2", "--theta3", "5", "--kappa", "3"],
        ["feasible", "6", "3", "--witness"],
        ["table", "--json"],
        ["fuzz", "--suite", "theorems", "--trials", "14", "--seed", "0"],
        ["fuzz", "--suite", "roundtrip", "--trials", "13", "--seed", "0"],
    ]
    outs = []
    for argv in runs:
        if argv[0] == "fuzz":
            monkeypatch.setattr(decide, "MAX_MULTISETS", 50)  # so that fuzz skips trials
        main(argv)
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["triples"] and json.loads(outs[-1])["skipped"]  # a fuzz summary with skipped trials
    assert len(json.loads(outs[2])["theorems"]) > 2 * 35  # the wide root is certified: every hole is walked
    for out in outs:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    assert main(["table", "--max-m", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == [1, 2, 3]
    assert main(["table", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["M"]) == 15
    assert cli.build_parser() is not cli.build_parser()
