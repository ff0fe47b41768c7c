import json

import pytest

from potline.cli import main


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
    code, out = run(capsys, "reduce", str(f), "--chain", "plcp:eopl",
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
        code, out = run(capsys, "reduce", str(f), "--chain", "plcp:eopl",
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
