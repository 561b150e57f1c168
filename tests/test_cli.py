import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from momentroot import fixtures
from momentroot.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

MEASURE_3_2 = {
    "atoms": [
        {"point": "1", "weight": "1"},
        {"point": "2", "weight": "2"},
        {"point": "4", "weight": "1"},
    ]
}


@pytest.fixture
def measure_file(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(MEASURE_3_2))
    return str(path)


def test_decide_yes_exit_zero(measure_file, capsys):
    assert main(["decide", "--measure", measure_file, "--kappa", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "certified_yes"
    assert doc["nu"]["base_mass"] == "1"
    assert {e["power"]: e["rho"] for e in doc["nu"]["entries"]} == {
        "1": "1",
        "2": "0",
        "4": "1",
    }


def test_decide_no_exit_three(measure_file, capsys):
    assert main(["decide", "--measure", measure_file, "--kappa", "3"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "certified_no"
    assert doc["certificate"]["kind"] == "mass_mismatch"


def test_analyze_json(measure_file, capsys):
    code = main(
        ["analyze", "--measure", measure_file, "--kappa", "2", "--holes", "--theorems", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support"] == ["1", "2", "4"]
    assert [h["leading"] for h in doc["holes"]] == [True, False, False]
    assert len(doc["triples"]) == 3
    assert doc["theorems"]
    for rep in doc["theorems"]:
        assert rep["violations"] == []


def test_analyze_text_output(measure_file, capsys):
    assert main(["analyze", "--measure", measure_file, "--kappa", "2"]) == 0
    out = capsys.readouterr().out
    assert "certified_yes" in out


def test_analyze_certified_no_skips_theorems(measure_file, capsys):
    code = main(
        ["analyze", "--measure", measure_file, "--kappa", "3", "--theorems", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"]["status"] == "certified_no"
    assert doc["theorems"] == []
    assert "theorems_note" in doc


def test_params_json(capsys):
    code = main(
        ["params", "--theta1", "1/2", "--theta2", "1", "--theta3", "9", "--kappa", "2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iota_s"] == 2 and doc["iota_s_star"] == 4
    assert doc["alpha"]["rational"] == "1/6"
    assert doc["beta_dag"]["rational"] is None
    assert doc["beta_dag"]["approx"]["precision_bits"] == 64


def test_params_irrational_has_no_floats(capsys):
    main(["params", "--theta1", "1/2", "--theta2", "1", "--theta3", "9", "--kappa", "2"])
    doc = json.loads(capsys.readouterr().out)

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)


def test_feasible_with_witness(capsys):
    assert main(["feasible", "10", "4", "--witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["witness"]["xs"] == ["1/16", "1", "4", "8"]

    assert main(["feasible", "2", "3", "--witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert "witness" not in doc


@pytest.mark.parametrize(
    "m, n", [(120, 15), (465, 30), (6146, 2050)] + [(n * (n + 1) // 2, n) for n in range(41, 47)]
)
def test_feasible_witness_within_the_span_guard(m, n, capsys):
    # (6146, 2050) is geometric with exponents exactly MAX_WITNESS_BITS apart;
    # M = N(N+1)/2 is the deepest pair of each N, and N = 46 the last inside
    assert main(["feasible", str(m), str(n), "--witness"]) == 0
    assert len(json.loads(capsys.readouterr().out)["witness"]["xs"]) == n


@pytest.mark.parametrize("m, n", [(6147, 2050), (8195, 4098), (605550, 1100), (1128, 47)])
def test_feasible_witness_beyond_the_span_guard_exits_one(m, n, capsys):
    # spans of 4,097 at the base case and from N alone; (605550, 1100) is
    # 1,097 levels deep and crosses the guard while prepending; (1128, 47)
    # is the deepest pair of the first N beyond it
    assert main(["feasible", str(m), str(n), "--witness"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: witness for (M={m}, N={n}) needs an exponent span of at least ")


@pytest.mark.parametrize("max_m", ["0", "-3", "100001"])
def test_table_max_m_out_of_range_exits_one(max_m, capsys):
    assert main(["table", "--max-m", max_m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --max-m must be in [1, 100000]"]


def test_table_text(capsys):
    assert main(["table", "--max-m", "15"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    n_minus = [int(v) for v in lines[1].split()[1:]]
    n_plus = [int(v) for v in lines[2].split()[1:]]
    assert n_minus == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5]
    assert n_plus == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]


def test_table_json(capsys):
    assert main(["table", "--max-m", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_minus"] == [1, 2, 2, 3]


def test_fuzz_small(capsys):
    code = main(["fuzz", "--suite", "roundtrip", "--trials", "25", "--seed", "11"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["trials"] == 25


def test_fuzz_prints_violations_as_the_oracle_does(capsys, monkeypatch):
    # no generated trial violates a statement, so a checker is stubbed to
    # return a violated report whose data hold every nested kind of value
    from momentroot import fuzz
    from momentroot.exact import Radical
    from momentroot.holes import Claim, TheoremReport, triple_params
    from oracles import report_dict

    stub = TheoremReport(
        "stub",
        (Claim("always", (("h", True),), "never holds", False), Claim("fine", (), "holds", True)),
        note="stubbed",
        data={
            "params": triple_params(F(1, 2), 1, 9, 2),
            "radicals": {"alpha": Radical(F(1, 3), 2, 2), "beta": Radical.root(4, 3)},
            "membership": {2: True, 4: False},
        },
    )
    monkeypatch.setattr(fuzz, "check_lower_support", lambda pair: stub)
    assert main(["fuzz", "--suite", "theorems", "--trials", "3", "--seed", "0"]) == 2
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert isinstance(doc.pop("elapsed_seconds"), float)
    assert doc == {"suite": "theorems", "trials": 3, "violations": [report_dict(stub)] * 3, "skipped": [], "ok": False}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_fixtures_all_pass(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 9


def test_failed_fixture_prints_a_fail_row_and_exits_two(monkeypatch, capsys):
    # raised by hand: pytest rewrites the assert statements of test files
    def fails():
        raise AssertionError("worked example differs")

    def fails_bare():
        raise AssertionError

    monkeypatch.setattr(fixtures, "FIXTURES", [*fixtures.FIXTURES[:1], ("fails", fails), ("fails-bare", fails_bare)])
    assert main(["fixtures"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"PASS {fixtures.FIXTURES[0][0]}",
        "FAIL fails: worked example differs",
        "FAIL fails-bare: assertion failed",
    ]


def test_fixtures_refuse_to_run_without_asserts():
    # python -O strips the asserts the fixtures check with, so every
    # fixture would pass whatever the code computes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-O", "-m", "momentroot", "fixtures"], capture_output=True, text=True, env=env
    )
    assert run.returncode == 1
    assert "PASS" not in run.stdout
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")


def test_usage_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": [{"point": "-1", "weight": "1"}]}))
    assert main(["decide", "--measure", str(bad), "--kappa", "2"]) == 1
    assert main(["decide", "--measure", str(tmp_path / "missing.json"), "--kappa", "2"]) == 1
    bad.write_text("not json")
    assert main(["decide", "--measure", str(bad), "--kappa", "2"]) == 1
    capsys.readouterr()


MALFORMED_INVOCATIONS = {
    "decide without --measure": (["decide", "--kappa", "2"], "error: the following arguments are required: --measure"),
    "no command": ([], "error: the following arguments are required: command"),
    "table --max-m x": (["table", "--max-m", "x"], "error: argument --max-m: invalid int value: 'x'"),
    # argparse reads -1/2 as an option, not as the value of --theta1
    "params --theta1 -1/2": (
        ["params", "--theta1", "-1/2", "--theta2", "2", "--theta3", "3", "--kappa", "2"],
        "error: argument --theta1: expected one argument",
    ),
    "fuzz --jobs 0": (["fuzz", "--suite", "roundtrip", "--trials", "4", "--jobs", "0"], "error: jobs must be at least 1"),
}


@pytest.mark.parametrize("case", MALFORMED_INVOCATIONS)
def test_malformed_invocation_exits_one(case, capsys):
    # a usage error is exit 1, in process too; 2 is kept for a violation
    argv, message = MALFORMED_INVOCATIONS[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: momentroot" in capsys.readouterr().out


UNREADABLE = {
    "directory": "error: ",  # the OS words the rest
    "not_utf8": "error: input is not UTF-8 text: ",
    "nested": "error: measure JSON is nested too deeply to read",  # json.load recurses per level
}


@pytest.mark.parametrize("command", [["decide"], ["analyze", "--holes", "--theorems", "--json"]])
@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_measure_file_exits_one(tmp_path, capsys, command, kind):
    path = tmp_path / "measure.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe" + json.dumps(MEASURE_3_2).encode())
    else:
        path.write_text('{"atoms": ' + "[" * 5000 + "]" * 5000 + "}")
    assert main([command[0], "--measure", str(path), "--kappa", "2", *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(UNREADABLE[kind])


def test_literal_beyond_the_int_digit_limit_exits_one(tmp_path, capsys):
    # CPython refuses int() of more than 4,300 digits; that is a usage error
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"atoms": [{"point": "1" + "0" * 5000, "weight": "1"}]}))
    assert main(["decide", "--measure", str(path), "--kappa", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: rational literal too long (5001 characters)"]


def test_result_beyond_the_int_digit_limit_exits_one(tmp_path, capsys):
    # every literal parses, but the coverage violation sits at 10**4402,
    # which CPython refuses to print in decimal: that is a usage error too
    atoms = {"1": "1", "1" + "0" * 1100: "2", "1" + "0" * 1101: "2", "1" + "0" * 2200: "1", "1" + "0" * 2202: "1"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"atoms": [{"point": p, "weight": w} for p, w in atoms.items()]}))
    assert main(["decide", "--measure", str(path), "--kappa", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: rational too long to print (a 14624-bit integer)"]


def test_triples_coefficient_beyond_the_int_digit_limit_exits_one(tmp_path, capsys):
    # both points print in 3,001 digits, but the coefficient x/theta3 of the
    # lower point's scaled radical has a 6,001-digit denominator
    atoms = {"1/" + "7" * 3000 + "1": "1", "3" * 3000 + "1": "1"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"atoms": [{"point": p, "weight": w} for p, w in atoms.items()]}))
    assert main(["analyze", "--measure", str(path), "--kappa", "2", "--holes", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: rational too long to print (a 19937-bit integer)"]


def test_analyze_text_of_a_no_instance(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"atoms": [{"point": "1", "weight": "1"}, {"point": "2", "weight": "1"}]}))
    assert main(["analyze", "--measure", str(path), "--kappa", "2", "--theorems"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kappa = 2",
        "support: 1 2",
        "decision: certified_no",
        "  certificate: mass_mismatch at 2",
        "hole (0, 1) (leading)",
        "hole (1, 2)",
        "no certified root; hole checkers skipped",
    ]


def test_analyze_theorems_exits_two_on_a_violation(tmp_path, capsys, monkeypatch):
    from momentroot import holes

    def violated(pair, theta1, theta2, **private):  # the walk passes the hole's facts
        return holes.TheoremReport("stub", (holes.Claim("always", (), "never holds", False),))

    monkeypatch.setattr(holes, "check_hole_backward", violated)
    path = tmp_path / "three.json"
    atoms = [{"point": "1", "weight": "1"}, {"point": "2", "weight": "2"}, {"point": "4", "weight": "1"}]
    path.write_text(json.dumps({"atoms": atoms}))
    argv = ["analyze", "--measure", str(path), "--kappa", "2", "--holes", "--theorems"]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "theorem check: stub: VIOLATED" in lines
    assert "theorem check: iota hole criteria: ok [not applicable]" in lines  # the leading hole (0, 1)
    assert main(argv + ["--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [r["violations"] for r in doc["theorems"] if r["theorem"] == "stub"] == [["always"]] * 3


def test_kappa_out_of_range_exits_one(measure_file, capsys):
    assert main(["decide", "--measure", measure_file, "--kappa", "1"]) == 1
    capsys.readouterr()


def test_fuzz_kappa_max_above_eight_exits_one(capsys):
    # GenParams is the one check of the kappa range: nothing clamps it to 8
    # first, and a huge value is refused without building its range
    argv = ["fuzz", "--suite", "iota", "--trials", "2"]
    for kappa_max in ["12", "1000000000", "10" * 10]:
        assert main(argv + ["--kappa-max", kappa_max]) == 1
        err = capsys.readouterr().err
        assert err == "error: kappa_set entries must lie in [2, 8]\n"
    assert main(argv + ["--kappa-max", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2
