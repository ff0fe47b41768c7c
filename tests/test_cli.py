import json
import shlex
from pathlib import Path

import pytest

from potline.cli import _ALGOS as ALGOS, main
from potline.problems import KINDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_and_solve_lcp(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    code, _ = run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "3",
                  "--seed", "7", "-o", str(f))
    assert code == 0 and f.exists()
    code, out = run(capsys, "solve", str(f), "--problem", "plcp", "--algo", "lemke")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["kind"] == "Q1"
    assert rec["verified"] is True
    assert rec["counters"]["pivots"] >= 0


def test_solve_worked_lcp(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    f.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    code, out = run(capsys, "solve", str(f), "--problem", "plcp", "--algo", "lemke")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["y"] == ["1/3", "1/3"]


def test_reduce_query_v_zero(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    f.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    code, out = run(capsys, "reduce", str(f), "--chain", "plcp:ueopl",
                    "--query", "V", "0000")
    assert code == 0
    assert json.loads(out)["answer"] == 0


def test_reduce_query_uso_opdc(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    f.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    code, _ = run(capsys, "generate", "--kind", "uso", "--d", "2", "--seed", "1",
                  "-o", str(tmp_path / "uso.json"))
    assert code == 0
    code, out = run(capsys, "reduce", str(tmp_path / "uso.json"), "--chain",
                    "uso:opdc", "--query", "D", "0", "1,1")
    assert code == 0
    assert json.loads(out)["answer"] in ("up", "down", "zero")


def test_reduce_bad_chain(tmp_path, capsys):
    f = tmp_path / "uso.json"
    run(capsys, "generate", "--kind", "uso", "--d", "2", "--seed", "1", "-o", str(f))
    code, _ = run(capsys, "reduce", str(f), "--chain", "uso:plcp")
    assert code == 2


def test_reduce_long_chain(tmp_path, capsys):
    run(capsys, "generate", "--kind", "uso", "--d", "2", "--seed", "2",
        "-o", str(tmp_path / "uso.json"))
    code, out = run(capsys, "reduce", str(tmp_path / "uso.json"), "--chain",
                    "uso,opdc,ufeopl", "--query", "V",
                    "0" * 9)
    assert code == 0
    assert json.loads(out)["answer"] == 0
    # full composition down to a unique-line instance with a predecessor
    code, out = run(capsys, "reduce", str(tmp_path / "uso.json"), "--chain",
                    "uso,opdc,ufeopl,plus1,ueopl", "--query", "V", "0")
    assert code == 0
    assert json.loads(out)["answer"] == 0


def test_reduce_queries_are_pure(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    f.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    outs = set()
    for _ in range(2):
        code, out = run(capsys, "reduce", str(f), "--chain", "plcp:ueopl",
                        "--query", "S", "0000")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_verify_accepts_and_rejects(tmp_path, capsys):
    inst = tmp_path / "lcp.json"
    inst.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "Q1", "y": ["1/3", "1/3"]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "Q1", "y": ["1/3", "1/2"]}))
    code, out = run(capsys, "verify", str(inst), str(good), "--problem", "plcp")
    assert code == 0 and json.loads(out)["accepted"] is True
    code, out = run(capsys, "verify", str(inst), str(bad), "--problem", "plcp")
    rep = json.loads(out)
    assert code == 1 and rep["accepted"] is False
    assert "complementarity" in rep["reason"]


def test_solve_aldous_deterministic(tmp_path, capsys):
    f = tmp_path / "line.json"
    run(capsys, "generate", "--kind", "explicitline", "--length", "16",
        "--seed", "3", "-o", str(f))
    code, out1 = run(capsys, "solve", str(f), "--problem", "line",
                     "--algo", "aldous", "--samples", "64", "--seed", "7")
    assert code == 0
    code, out2 = run(capsys, "solve", str(f), "--problem", "line",
                     "--algo", "aldous", "--samples", "64", "--seed", "7")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed"), r2.pop("elapsed")
    assert r1 == r2


def test_solve_contraction(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "1",
        "--seed", "5", "-o", str(f))
    code, out = run(capsys, "solve", str(f), "--problem", "contraction",
                    "--algo", "findfp")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["kind"] == "CM1" and rec["verified"]
    code, out = run(capsys, "solve", str(f), "--problem", "contraction",
                    "--algo", "approx", "--eps", "1/1024", "--p", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["kind"] == "APPROX_FIX" and rec["verified"]


def test_run_record_roundtrip(tmp_path, capsys):
    from potline.problems import cert_from_json, lcp_from_json, verify

    f = tmp_path / "lcp.json"
    run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "2", "--seed", "9",
        "-o", str(f))
    code, out = run(capsys, "solve", str(f), "--problem", "plcp", "--algo", "lemke")
    rec = json.loads(out)
    inst = lcp_from_json(json.loads(f.read_text()))
    c = cert_from_json(rec["certificate"], "plcp")
    assert verify(inst, c)


def test_solve_follow_and_brute(tmp_path, capsys):
    f = tmp_path / "line.json"
    run(capsys, "generate", "--kind", "explicitline", "--length", "8",
        "--seed", "1", "-o", str(f))
    code, out = run(capsys, "solve", str(f), "--problem", "line", "--algo", "follow")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["kind"] == "U1" and rec["verified"]

    g = tmp_path / "lcp.json"
    g.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    code, out = run(capsys, "solve", str(g), "--problem", "plcp", "--algo", "brute")
    assert code == 0
    rec = json.loads(out)
    assert rec["certificate"]["kind"] == "Q1"


def _solve_then_verify(tmp_path, capsys, inst, problem, solve_args):
    record_path, cert_path = tmp_path / "record.json", tmp_path / "cert.json"
    code, _ = run(capsys, "solve", str(inst), "--problem", problem, *solve_args,
                  "-o", str(record_path))
    assert code == 0
    record = json.loads(record_path.read_text())
    cert_path.write_text(json.dumps(record["certificate"]))
    code, out = run(capsys, "verify", str(inst), str(cert_path), "--problem", problem)
    return record, code, json.loads(out)


@pytest.mark.parametrize("gen_args, problem, solve_args", [
    (["--kind", "pmatrixlcp", "--d", "3"], "plcp", ["--algo", "lemke"]),
    (["--kind", "nonpmatrixlcp", "--d", "3"], "plcp", ["--algo", "lemke"]),
    (["--kind", "explicitline", "--length", "12"], "line", ["--algo", "follow"]),
    (["--kind", "multiline", "--length", "8"], "line", ["--algo", "aldous", "--samples", "16"]),
    (["--kind", "contractioncircuit", "--d", "2"], "contraction", ["--algo", "findfp"]),
    (["--kind", "noncontraction", "--d", "2"], "contraction", ["--algo", "findfp"]),
    (["--kind", "brokenuso", "--d", "2"], "uso", ["--algo", "brute"]),
    (["--kind", "nonpmatrixlcp", "--d", "2"], "plcp", ["--algo", "brute"]),
])
def test_record_verified_agrees_with_verify(tmp_path, capsys, gen_args, problem, solve_args):
    inst = tmp_path / "inst.json"
    assert run(capsys, "generate", *gen_args, "--seed", "3", "-o", str(inst))[0] == 0
    record, code, report = _solve_then_verify(tmp_path, capsys, inst, problem, solve_args)
    assert record["verified"] is True
    assert report["accepted"] is True and code == 0


def test_record_verified_agrees_with_verify_approx(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3",
        "-o", str(inst))
    data = json.loads(inst.read_text())
    data["eps"] = "1/1024"
    inst.write_text(json.dumps(data))
    record, code, report = _solve_then_verify(tmp_path, capsys, inst, "contraction",
                                              ["--algo", "approx"])
    assert record["verified"] is True
    assert report["accepted"] is True and code == 0


def test_record_verified_agrees_with_verify_approx_cli_eps(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3",
        "-o", str(inst))
    record, code, report = _solve_then_verify(tmp_path, capsys, inst, "contraction",
                                              ["--algo", "approx", "--eps", "1/1024"])
    assert record["verified"] is report["accepted"] is True
    assert record["certificate"]["eps"] == "1/1024" and record["certificate"]["p"] == 2


def test_verify_rejects_approx_fix_without_eps(tmp_path, capsys):
    inst = tmp_path / "map.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3",
        "-o", str(inst))
    bad = tmp_path / "cert.json"
    bad.write_text(json.dumps({"kind": "APPROX_FIX", "v": ["7/16", "3/4"], "p": 2}))
    code, out = run(capsys, "verify", str(inst), str(bad), "--problem", "contraction")
    assert code == 1
    assert json.loads(out) == {"accepted": False, "kind": "APPROX_FIX",
                               "reason": "APPROX_FIX needs eps >= 0 and an integer p >= 1"}


def test_verify_explains_wrong_dimension(tmp_path, capsys):
    inst = tmp_path / "map.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3",
        "-o", str(inst))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "CM1", "x": ["1/2", "1/2", "1/2"]}))
    code, out = run(capsys, "verify", str(inst), str(bad), "--problem", "contraction")
    assert code == 1
    assert json.loads(out) == {"accepted": False, "kind": "CM1", "reason": "dimension mismatch"}


def test_solve_approx_without_eps_exits_2(tmp_path, capsys):
    inst = tmp_path / "map.json"
    run(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3",
        "-o", str(inst))
    assert "eps" not in json.loads(inst.read_text())
    code = main(["solve", str(inst), "--problem", "contraction", "--algo", "approx"])
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: approximate mode needs eps > 0"


# -- input errors: every command exits 0, 1 or 2, and 2 with an `error:` line --

def run_err(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path, capsys):
    """One instance file per problem kind, plus EOPL and EOML lines."""
    from potline.generators import gen_uso
    from potline.problems import opdc_to_json
    from potline.reductions_opdc import uso_to_opdc

    out = {}
    for name, gen_args in [
        ("plcp", ["--kind", "pmatrixlcp", "--d", "2"]),
        ("uso", ["--kind", "uso", "--d", "2"]),
        ("contraction", ["--kind", "contractioncircuit", "--d", "1"]),
        ("line", ["--kind", "explicitline", "--length", "8"]),
        ("eopl", ["--kind", "explicitline", "--length", "8", "--flavor", "eopl"]),
        ("eoml", ["--kind", "explicitline", "--length", "8", "--flavor", "eoml"]),
    ]:
        out[name] = tmp_path / f"{name}.json"
        assert run(capsys, "generate", *gen_args, "--seed", "1", "-o", str(out[name]))[0] == 0
    out["opdc"] = tmp_path / "opdc.json"
    out["opdc"].write_text(json.dumps(opdc_to_json(uso_to_opdc(gen_uso(2, 1)))))
    out["short"] = tmp_path / "short.json"  # 00 -> 01; 10 and 11 are non-vertices
    out["short"].write_text(json.dumps({"flavor": "ueopl", "n": 2, "S": {"00": "01"},
                                        "P": {"01": "00"}, "V": {"01": 1}}))
    out["holes"] = tmp_path / "holes.json"  # grid point (0, 1) and others missing
    out["holes"].write_text(json.dumps({"k": [1, 1], "D": {"0,0": ["up", "up"]}}))
    out["array"] = tmp_path / "array.json"
    out["array"].write_text("[1, 2]")
    return out


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("problem", list(KINDS))
@pytest.mark.parametrize("algo", list(ALGOS))
def test_solve_matrix_exits_cleanly(files, capsys, problem, algo):
    code, _, err = run_err(capsys, "solve", files[problem], "--problem", problem, "--algo", algo)
    _assert_clean_exit(code, err)


CHAINS = [
    ("plcp", "plcp:uso"),
    ("plcp", "plcp:ueopl"),
    ("uso", "uso:opdc"),
    ("contraction", "contraction:opdc"),
    ("opdc", "opdc:ufeopl"),
    ("uso", "uso,opdc,ufeopl,plus1"),
    ("uso", "uso,opdc,ufeopl,plus1,ueopl"),
    ("uso", "uso,opdc,ufeopl,plus1,ueopl,normalized"),
    ("uso", "uso,opdc,ufeopl,plus1,ueopl,normalized,opdc"),
    ("eopl", "eopl:eoml"),
    ("eoml", "eoml:eopl"),
]
QUERIES = [["S", "0"], ["P", "0"], ["V", "0"], ["D", "0", "0,0"]]


@pytest.mark.parametrize("source, chain", CHAINS)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q[0])
def test_query_matrix_exits_cleanly(files, capsys, source, chain, query):
    code, _, err = run_err(capsys, "reduce", files[source], "--chain", chain, "--query", *query)
    _assert_clean_exit(code, err)
    applies_to = "opdc" if query[0] == "D" else "line"
    target = chain.replace(":", ",").split(",")[-1]
    if (target == "opdc") != (applies_to == "opdc"):
        assert code == 2 and f"applies to {applies_to} views" in err


def test_reduce_lemke_line_to_normalized(files, capsys):
    code, out, err = run_err(capsys, "reduce", files["plcp"], "--chain", "plcp:ueopl:normalized",
                             "--query", "V", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["answer"] == 0


def test_off_grid_message_names_the_coordinate_not_the_widths(files, capsys):
    # The grid of this chain has over a thousand dimensions; the error names
    # the point's coordinate count and the grid's dimension count.
    code, out, err = run_err(capsys, "reduce", files["uso"], "--chain",
                             "uso,opdc,ufeopl,plus1,ueopl,normalized,opdc", "--query", "D", "0", "0,0")
    assert (code, out) == (2, "")
    assert err.startswith("error: point has 2 coordinates; the grid has ") and err.count("\n") == 1
    assert len(err) < 80, err
    code, _, err = run_err(capsys, "reduce", files["uso"], "--chain", "uso:opdc", "--query", "D", "0", "0,3")
    assert code == 2 and "coordinate 1 of the point is 3, outside 0..1 (the grid has 2 dimensions)" in err


@pytest.mark.parametrize("argv, message", [
    (["solve", "plcp", "--problem", "plcp", "--algo", "follow"], "--algo follow solves line, not plcp"),
    (["solve", "plcp", "--problem", "plcp", "--algo", "findfp"],
     "--algo findfp solves contraction, not plcp"),
    (["reduce", "plcp", "--chain", "plcp:uso", "--query", "S", "01"], "--query S applies to line views"),
    (["reduce", "plcp", "--chain", "plcp:ueopl", "--query", "D", "0", "1"],
     "--query D applies to opdc views"),
    (["reduce", "plcp", "--chain", "plcp:ueopl", "--query", "S"], "--query S takes 1 argument(s), got 0"),
    (["reduce", "plcp", "--chain", "plcp:uso,opdc", "--query", "D", "5", "1,0"], "dimension 5 outside 0..1"),
    (["reduce", "plcp", "--chain", "plcp:ueopl", "--query", "S", "10000"], "vertex 10000 is not an id of 4 bits"),
    (["reduce", "plcp", "--chain", "plcp:ueopl", "--query", "Q", "0"], "unknown query Q"),
    (["solve", "plcp", "--problem", "line", "--algo", "follow"], "is not a line instance: no field 'n'"),
    (["solve", "line", "--problem", "plcp", "--algo", "lemke"], "is not a plcp instance: no field 'M'"),
    (["solve", "short", "--problem", "line", "--algo", "follow", "--start", "11"],
     "walk stalled at non-vertex 3"),
    (["solve", "holes", "--problem", "opdc", "--algo", "brute"],
     "opdc instance has no 2 directions at point (0, 1)"),
    (["solve", "array", "--problem", "plcp", "--algo", "lemke"], "array.json does not hold a JSON object"),
    (["verify", "plcp", "array", "--problem", "plcp"], "array.json does not hold a JSON object"),
    (["solve", "short", "--problem", "line", "--algo", "follow", "--start", "1111111111111"],
     "vertex 1111111111111 is not an id of 2 bits"),
    (["solve", "short", "--problem", "line", "--algo", "follow", "--start", "-1"],
     "vertex -1 is not an id of 2 bits"),
    # Python literal syntax is not an id: 0b1, 1_0 and " 11" would read as 1, 2 and 3.
    *[(argv + [bits], f"vertex {bits} is not an id of {n} bits")
      for argv, n in [(["reduce", "plcp", "--chain", "plcp:ueopl", "--query", "S"], 4),
                      (["solve", "short", "--problem", "line", "--algo", "follow", "--start"], 2)]
      for bits in ("0b1", "1_0", " 11")],
    # The chain is checked before the file is read, and before the query.
    (["reduce", "line", "--chain", "foo:eopl"], "no reduction foo -> eopl"),
    (["reduce", "plcp", "--chain", "eoml:eopl:foo", "--query", "S", "00"], "no reduction eopl -> foo"),
    # UniqueEOPL -> OPDC needs a normalized source.
    (["reduce", "line", "--chain", "ueopl:opdc"], "no reduction ueopl -> opdc"),
])
def test_input_errors_exit_2(files, capsys, argv, message):
    argv = [files.get(a, a) if i in (1, 2) else a for i, a in enumerate(argv)]
    code, out, err = run_err(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_reduce_trivial_eopl_prints_its_certificate(tmp_path, capsys):
    # S(0) = 01 has no predecessor, so 0 is an R1 answer of the EOPL line.
    line = tmp_path / "trivial.json"
    line.write_text(json.dumps({"flavor": "eopl", "n": 2, "S": {"00": "01"}, "P": {}, "V": {"01": 1}}))
    code, out, err = run_err(capsys, "reduce", line, "--chain", "eopl:eoml")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["result"] == "trivial" and record["certificate"] == {"kind": "R1", "x": 0}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(record["certificate"]))
    code, out, _ = run_err(capsys, "verify", line, path, "--problem", "line")
    assert code == 0 and json.loads(out)["accepted"]


@pytest.mark.parametrize("certificate, message", [
    ({"kind": "Q1"}, "Q1 certificate has no field 'y'"),
    ({"y": ["0", "0"]}, "certificate has no field 'kind'"),
])
def test_malformed_certificate_exits_2(files, tmp_path, capsys, certificate, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate))
    code, out, err = run_err(capsys, "verify", files["plcp"], path, "--problem", "plcp")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("problem, certificate, message", [
    ("plcp", {"kind": "Q1", "y": 5}, "certificate field 'y': expected a JSON array, got int"),
    ("plcp", {"kind": "Q1", "y": "01"}, "certificate field 'y': expected a JSON array, got str"),
    ("plcp", {"kind": "Q1", "y": [[0], 0]}, "certificate field 'y': cannot interpret [0] as an exact rational"),
    ("plcp", {"kind": 5, "y": ["0", "0"]}, "certificate field 'kind': expected a string, got int"),
    ("uso", {"kind": "U1", "v": [1]}, "certificate field 'v': expected a bit string or an integer, got list"),
    ("opdc", {"kind": "O1", "p": 0}, "certificate field 'p': expected a JSON array, got int"),
    ("contraction", {"kind": "APPROX_FIX", "x": ["0"], "eps": 0.5},
     "certificate field 'eps': cannot interpret 0.5 as an exact rational"),
])
def test_wrong_typed_certificate_exits_2(files, tmp_path, capsys, problem, certificate, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate))
    code, out, err = run_err(capsys, "verify", files[problem], path, "--problem", problem)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("problem, instance, message", [
    ("plcp", {"M": 5, "q": [1]}, "field 'M': expected a JSON array, got int"),
    ("plcp", {"M": [[1]], "q": "1"}, "field 'q': expected a JSON array, got str"),
    ("uso", {"n": 2, "orient": 3}, "field 'orient': expected a JSON object, got int"),
    ("uso", {"n": [2], "orient": {}}, "field 'n': "),
    ("line", {"n": 2, "S": ["00", "01"]}, "field 'S': expected a JSON object, got list"),
    ("line", {"n": 2, "flavor": ["eopl"]}, "field 'flavor': expected a string, got list"),
    ("opdc", {"k": 1, "D": {}}, "field 'k': expected a JSON array, got int"),
    ("opdc", {"k": [1], "D": {"0": 5}}, "field 'D': expected a JSON array, got int"),
    ("contraction", {"circuit": 5, "c": "1/2", "p": 2}, "field 'circuit': expected a JSON object, got int"),
    ("line", {"flavor": "ueopl", "n": 2, "m": 2, "S": {"00": "01", "01": "10"}, "P": {"01": "00", "10": "01"},
              "V": {"01": -3, "10": 1}}, "field 'V': potential -3 of vertex 01 is outside [0, 2^2)"),
    ("line", {"flavor": "ueopl", "n": 2, "m": 2, "S": {"00": "01", "01": "10"}, "P": {"01": "00", "10": "01"},
              "V": {"01": 2, "10": 40}}, "field 'V': potential 40 of vertex 10 is outside [0, 2^2)"),
])
def test_malformed_instance_exits_2(tmp_path, capsys, problem, instance, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_err(capsys, "solve", path, "--problem", problem, "--algo", "brute")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not a {problem} instance: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kappa", [[8.0, 8], ["8", 8], [8]])
def test_bad_kappa_exits_2(tmp_path, capsys, kappa):
    inst = tmp_path / "map.json"
    run_err(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "3", "-o", inst)
    data = json.loads(inst.read_text())
    data["kappa"] = kappa
    inst.write_text(json.dumps(data))
    level2 = tmp_path / "cert.json"
    level2.write_text(json.dumps({"kind": "CMV3", "level": 2, "x": ["0", "1/256"], "y": ["0", "0"]}))
    message = (f"error: {inst} is not a contraction instance: field 'kappa': "
               f"expected one integer >= 1 per dimension (2), got {kappa}\n")
    for argv in (["solve", inst, "--problem", "contraction", "--algo", "findfp"],
                 ["verify", inst, level2, "--problem", "contraction"]):
        assert run_err(capsys, *argv) == (2, "", message)


# -- -o writes a new file ----------------------------------------------------------

def _solve_to(capsys, inst, out):
    code, _, err = run_err(capsys, "solve", inst, "--problem", "plcp", "--algo", "lemke", "-o", out)
    assert (code, err) == (0, "")


def test_solve_output_rewrite_leaves_the_second_record(files, tmp_path, capsys):
    out = tmp_path / "rec.json"
    _solve_to(capsys, files["plcp"], out)
    first = out.read_text()
    _solve_to(capsys, files["plcp"], out)
    second = out.read_text()
    assert json.loads(second)["verified"] is True

    def strip(text):
        return [line for line in text.splitlines() if not line.lstrip().startswith('"elapsed"')]

    assert strip(second) == strip(first)


def test_solve_output_replaces_rather_than_truncates(files, tmp_path, capsys):
    out = tmp_path / "rec.json"
    out.write_text("old record\n")
    with open(out) as old:
        _solve_to(capsys, files["plcp"], out)
        assert old.read() == "old record\n"
    assert json.loads(out.read_text())["verified"] is True


def test_solve_output_hard_link_keeps_the_old_record(files, tmp_path, capsys):
    out, link = tmp_path / "rec.json", tmp_path / "hard.json"
    out.write_text("old record\n")
    link.hardlink_to(out)
    _solve_to(capsys, files["plcp"], out)
    assert link.read_text() == "old record\n"
    assert json.loads(out.read_text())["verified"] is True


def test_solve_output_writes_through_a_symlink(files, tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old record\n")
    link.symlink_to(target)
    _solve_to(capsys, files["plcp"], link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert json.loads(target.read_text())["verified"] is True


def test_generate_output_replaces_an_existing_instance(tmp_path, capsys):
    out = tmp_path / "lcp.json"
    assert run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "2", "--seed", "1", "-o", str(out))[0] == 0
    with open(out) as old:
        before = old.read()
        assert run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "3", "--seed", "2",
                   "-o", str(out))[0] == 0
        old.seek(0)
        assert old.read() == before
    assert len(json.loads(out.read_text())["q"]) == 3


def test_output_to_a_directory_exits_2(files, tmp_path, capsys):
    code, out, err = run_err(capsys, "solve", files["plcp"], "--problem", "plcp", "--algo", "lemke",
                             "-o", tmp_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


# -- the README's CLI block runs as written -------------------------------------

def _readme_cli_lines():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("potline ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert any(argv[0] == "verify" for argv in lines)
    certs = {}
    for argv in lines:
        if argv[0] == "verify":
            # The record's certificate of the instance being verified.
            Path(argv[2]).write_text(json.dumps(certs[argv[1]]))
        code, out, err = run_err(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[0] == "solve":
            certs[argv[1]] = json.loads(out)["certificate"]
