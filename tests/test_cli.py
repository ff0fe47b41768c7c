import argparse
import decimal
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import potline
from potline.cli import _ALGOS as ALGOS, compose, main
from potline import circuits
from potline.circuits import compute_kappa
from potline.generators import gen_contraction, gen_lcp, gen_uso
from potline.problems import KINDS, MAX_BITS, MAX_KAPPA, BadField, cert, verify
from potline.reductions_lcp import PlcpLineView
from potline.solvers import brute_force

from helpers import FULL_CHAIN, fibonacci_contraction, v_digits


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


def test_empty_lcp_round_trip(tmp_path, capsys):
    # d = 0: y = [] solves it, and its scale and I_max are those of no entry.
    f, c = tmp_path / "lcp.json", tmp_path / "cert.json"
    f.write_text(json.dumps({"M": [], "q": []}))
    code, out = run(capsys, "solve", str(f), "--problem", "plcp", "--algo", "lemke")
    assert code == 0 and json.loads(out)["certificate"] == {"kind": "Q1", "y": []}
    c.write_text(json.dumps({"kind": "Q1", "y": []}))
    code, out = run(capsys, "verify", str(f), str(c), "--problem", "plcp")
    assert code == 0 and json.loads(out)["accepted"] is True


def test_reduce_query_v_zero(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    f.write_text(json.dumps({"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}))
    code, out = run(capsys, "reduce", str(f), "--chain", "plcp:ueopl",
                    "--query", "V", "0000")
    assert code == 0
    assert json.loads(out)["answer"] == 0


# The digits of V (`helpers.v_digits`) on the Lemke line of `generate --kind
# pmatrixlcp --d 3 --seed 7`: a vertex inside the line, and an end, where z
# is nonbasic and every digit is Delta^3.
DELTA3 = 148895629298343352709556289745465594010309591380883121
PINNED_V = {
    "010010": (148895629298343325179059895827554142751771875333139983, DELTA3,
               148895629298343352990479722336464690451723241544635602, DELTA3),
    "000010": (DELTA3,) * 4,
}


def test_reduce_pins_the_lemke_line_potential(tmp_path, capsys):
    f = tmp_path / "lcp.json"
    run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "3", "--seed", "7", "-o", str(f))
    view = PlcpLineView(gen_lcp(3, 7))
    assert view.delta**3 == DELTA3
    for vertex, want in PINNED_V.items():
        code, out = run(capsys, "reduce", str(f), "--chain", "plcp:ueopl", "--query", "V", vertex)
        assert code == 0 and v_digits(view, json.loads(out)["answer"]) == want, vertex


def test_reduce_prints_a_lemke_potential_of_any_size(tmp_path, capsys):
    # At d = 16 the start's V has about 30,000 bits, more decimal digits
    # than the 4300 that Python's int -> str conversion allows.
    f = tmp_path / "lcp.json"
    run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "16", "--seed", "1", "-o", str(f))
    view = PlcpLineView(gen_lcp(16, 1))
    start = "00001000000000000000100000000000"
    assert view.start()[0] == int(start, 2)
    code, out = run(capsys, "reduce", str(f), "--chain", "plcp:ueopl", "--query", "V", start)
    assert code == 0
    answer = json.loads(out, parse_int=decimal.Decimal)["answer"]
    assert len(str(answer)) > 4300 and int(answer) == view.potential(int(start, 2))


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
    # and on through the normalization
    code, out = run(capsys, "reduce", str(tmp_path / "uso.json"), "--chain",
                    "uso,opdc,ufeopl,plus1,ueopl,normalized", "--query", "V", "0")
    assert code == 0
    assert json.loads(out)["answer"] == 0


def test_reduce_eopl_to_eoml_queries(tmp_path, capsys):
    # The start code 0 of a generated EOPL line has potential 1 on the EOML
    # view and a successor on the start chain.
    f = tmp_path / "eopl.json"
    run(capsys, "generate", "--kind", "explicitline", "--length", "8", "--flavor", "eopl", "-o", str(f))
    code, out = run(capsys, "reduce", str(f), "--chain", "eopl:eoml", "--query", "V", "0")
    assert code == 0 and json.loads(out)["answer"] == 1
    code, out = run(capsys, "reduce", str(f), "--chain", "eopl:eoml", "--query", "S", "0")
    assert code == 0 and json.loads(out)["answer"] == "000000010"


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


def test_verify_rejects_ids_outside_the_instance(tmp_path, capsys):
    # A vertex id outside [0, 2^n), an LCP label outside 0..d-1 and a CMV3
    # point of fewer than d coordinates name nothing in the instance, though
    # a table lookup, a cone solve or a code's decoding reads each as some
    # in-range object.  Nor does a point off an OPDC grid.
    uso = tmp_path / "uso1.json"
    uso.write_text(json.dumps({"n": 1, "orient": {"0": "1", "1": "0"}}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"k": [1], "D": {"0": ["up"], "1": ["down"]}}))
    lcp, bad_map = tmp_path / "lcp.json", tmp_path / "bad.json"
    run(capsys, "generate", "--kind", "pmatrixlcp", "--d", "2", "--seed", "0", "-o", str(lcp))
    run(capsys, "generate", "--kind", "noncontraction", "--d", "2", "-o", str(bad_map))
    cert_path = tmp_path / "cert.json"
    for problem, inst, certificate in [
        ("uso", uso, {"kind": "USV1", "v": 7}),
        ("plcp", lcp, {"kind": "PV3", "alpha": [], "beta": [7]}),
        ("contraction", bad_map, {"kind": "CMV3", "level": 1, "x": ["0"], "y": ["0"]}),
        ("opdc", grid, {"kind": "O1", "p": [5]}),
        ("opdc", grid, {"kind": "O1", "p": [1, 1]}),
        ("opdc", grid, {"kind": "OV2", "level": 1, "p": [1], "q": [-1]}),
    ]:
        cert_path.write_text(json.dumps(certificate))
        code, out = run(capsys, "verify", str(inst), str(cert_path), "--problem", problem)
        assert code == 1 and json.loads(out)["accepted"] is False, certificate

    cube = gen_uso(2, 0)
    sink = next(c for c in brute_force(cube) if c.kind == "US1")
    assert verify(cube, sink)
    assert not any(verify(cube, cert("US1", v=sink.v + shift)) for shift in (-4, 4))
    # The pebbling stage decodes only a code's low n bits.
    ueopl, _ = compose(gen_lcp(2, 0, nondegenerate=True), FULL_CHAIN[:-1])
    u1 = next(c for c in brute_force(ueopl, max_certs=300) if c.kind == "U1")
    assert verify(ueopl, u1) and not verify(ueopl, cert("U1", x=u1.x + (1 << ueopl.n)))


def test_empty_bit_string_certificate_exits_2(files, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": "US1", "v": ""}))
    code, out, err = run_err(capsys, "verify", files["uso"], path, "--problem", "uso")
    assert (code, out, err) == (2, "", "error: certificate field 'v': '' is not a bit string of 0 bits\n")


def test_certificate_bit_string_is_read_against_the_instance(files, tmp_path, capsys):
    # A vertex bit string wider than the instance's n is an input error
    # (exit 2) naming the field; leading zeros are allowed, and an integer id
    # outside [0, 2^n) stays a rejection (exit 1).
    uso = tmp_path / "uso1.json"
    uso.write_text(json.dumps({"n": 1, "orient": {"0": "1", "1": "0"}}))
    path = tmp_path / "cert.json"

    def verify_cert(inst, problem, certificate):
        path.write_text(json.dumps(certificate))
        return run_err(capsys, "verify", inst, path, "--problem", problem)

    assert verify_cert(uso, "uso", {"kind": "US1", "v": "111"}) == (
        2, "", "error: certificate field 'v': '111' is not a bit string of 1 bits\n")
    assert verify_cert(files["short"], "line", {"kind": "UV3", "x": "01", "y": "100"}) == (
        2, "", "error: certificate field 'y': '100' is not a bit string of 2 bits\n")
    assert verify_cert(uso, "uso", {"kind": "US1", "v": 3})[0] == 1
    assert verify_cert(files["short"], "line", {"kind": "U1", "x": "0001"})[0] == 0
    code, out, _ = verify_cert(files["short"], "line", {"kind": "U1", "x": "0010"})
    assert (code, out) == verify_cert(files["short"], "line", {"kind": "U1", "x": "10"})[:2]
    assert code == 1


def test_generate_unknown_flavor_exits_2(capsys):
    code, out, err = run_err(capsys, "generate", "--kind", "explicitline", "--flavor", "bogus")
    assert (code, out, err) == (2, "", "error: unknown flavor bogus\n")


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


def test_solve_contraction_with_a_long_continued_fraction(tmp_path, capsys):
    # Its answer has 2881 continued-fraction terms; see test_solvers.
    inst, x_star = fibonacci_contraction(2000)
    f = tmp_path / "fib.json"
    f.write_text(json.dumps(KINDS["contraction"].to_json(inst)))
    record, code, report = _solve_then_verify(tmp_path, capsys, f, "contraction", ["--algo", "findfp"])
    assert record["certificate"] == {"kind": "CM1", "x": [str(x_star)]} and record["verified"]
    assert report == {"accepted": True, "kind": "CM1"} and code == 0


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
    # q is fractional: Lemke reads its values back through the row scales.
    (["--kind", "pmatrixlcp", "--d", "16"], "plcp", ["--algo", "lemke"]),
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


def test_opdc_table_round_trip(tmp_path, capsys):
    # The three-point grid up, zero, down has its O1 at 1.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"k": [2], "D": {"0": ["up"], "1": ["zero"], "2": ["down"]}}))
    record, code, report = _solve_then_verify(tmp_path, capsys, grid, "opdc", ["--algo", "brute"])
    assert record["certificate"] == {"kind": "O1", "p": [1]} and record["verified"] is True
    assert report == {"accepted": True, "kind": "O1"} and code == 0


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
    from potline.reductions_opdc import UsoToOpdc

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
    out["opdc"].write_text(json.dumps(opdc_to_json(UsoToOpdc(gen_uso(2, 1)).image())))
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
    # Sizes that give no instance or no run (the size comes first: argv[1] and
    # argv[2] are looked up in `files`, which has a `uso` entry).
    (["generate", "--length", "1", "--kind", "explicitline"], "line length must be at least 2, got 1"),
    (["generate", "--length", "0", "--kind", "multiline"], "line length must be at least 2, got 0"),
    (["generate", "--d", "0", "--kind", "pmatrixlcp"], "dimension must be at least 1, got 0"),
    (["generate", "--d", "0", "--kind", "uso"], "dimension must be at least 1, got 0"),
    (["generate", "--d", "0", "--kind", "noncontraction"], "dimension must be at least 1, got 0"),
    (["solve", "line", "--problem", "line", "--algo", "aldous", "--samples", "-3"],
     "samples must be at least 0, got -3"),
    # Generators that check all 2^d cones stop at once above POTLINE_BUDGET.
    *[(["generate", "--d", "40", "--kind", kind], f"--kind {kind} checks all 2^40 cones")
      for kind in ("uso", "brokenuso", "nonpmatrixlcp")],
    # A chain of one stage reduces nothing.
    (["reduce", "uso", "--chain", "uso"], "chain needs a source and at least one target"),
    # --query D reads ASCII decimal digits, a point's coordinates split by
    # commas (the rule of OPDC table keys): no sign, no `_`, no other
    # script's digits, no spaces.
    *[(["reduce", "uso", "--chain", "uso:opdc", "--query", "D", dim, "0,1"],
       f"--query D dimension {dim!r} is not a decimal integer")
      for dim in ("+0", "-0", "\u0660", "0_0", " 0", "")],
    *[(["reduce", "uso", "--chain", "uso:opdc", "--query", "D", "0", point],
       f"--query D point {point!r} is not decimal integers split by commas")
      for point in ("0_0,+1", "0,+1", "0,-1", "0 1", "\u0660,1", "0,1,", " 0,1")],
    # Each line view names the flavor its source must have.
    *[(["reduce", source, "--chain", chain], f"source must be {flavor}")
      for source, chain, flavor in [("eopl", "eoml,eopl", "EOML"), ("eopl", "ufeopl,plus1", "UFEOPL"),
                                    ("eopl", "plus1,ueopl", "UFEOPL+1"),
                                    ("eopl", "ueopl,normalized", "UniqueEOPL"),
                                    ("eopl", "normalized,opdc", "UniqueEOPL"),
                                    ("line", "eopl,eoml", "EOPL")]],
    # A rational is an integer or num/den in ASCII digits, as in the files.
    *[(["solve", "contraction", "--problem", "contraction", "--algo", "approx", "--eps", eps],
       f"{eps!r} is not an integer or num/den")
      for eps in ("0.5", "1e-3", " 1/2", "1_0/3", "\u0661/2")],
])
def test_input_errors_exit_2(files, capsys, argv, message):
    argv = [files.get(a, a) if i in (1, 2) else a for i, a in enumerate(argv)]
    code, out, err = run_err(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# -- one parser per process, and no state carried from one call to the next --------

def test_parser_is_built_once(files, tmp_path, capsys, monkeypatch):
    # The `files` fixture has already called `main`, which built the parser.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    inst, record, cert = tmp_path / "lcp.json", tmp_path / "record.json", tmp_path / "cert.json"
    assert run_err(capsys, "generate", "--kind", "pmatrixlcp", "--d", "2", "-o", inst)[0] == 0
    assert run_err(capsys, "solve", inst, "--problem", "plcp", "--algo", "lemke", "-o", record)[0] == 0
    cert.write_text(json.dumps(json.loads(record.read_text())["certificate"]))
    assert run_err(capsys, "verify", inst, cert, "--problem", "plcp")[0] == 0
    assert built == []


def test_help_prints_from_the_parser_built_once(capsys):
    for argv in (["--help"], ["solve", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "pmatrixlcp", "--d", "\u0663"],
    ["generate", "--kind", "pmatrixlcp", "--d", "2", "--seed", "1_0"],
    ["generate", "--kind", "explicitline", "--length", " 4"],
    ["generate", "--kind", "contractioncircuit", "--d", "1", "--p", "+2"],
    ["solve", "line", "--problem", "line", "--algo", "aldous", "--samples", "1_0"],
    ["solve", "line", "--problem", "line", "--algo", "aldous", "--seed", "0x1"],
    ["solve", "contraction", "--problem", "contraction", "--algo", "approx", "--eps", "1/8", "--p", "2.0"],
    ["generate", "--kind", "foo"],
    ["reduce", "plcp"],
])
def test_integer_options_read_ascii_digits(files, capsys, argv):
    # `int()` reads the integer values here; each is an input error naming
    # the value, as are a --kind that names no generator and a missing
    # --chain: `main` returns 2 with one `error:` line, as for every input error.
    code = main([str(files.get(a, a)) if i == 1 else a for i, a in enumerate(argv)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    other = {"foo": "invalid choice: 'foo'", "plcp": "the following arguments are required: --chain"}
    assert other.get(argv[-1], f"invalid integer value: {argv[-1]!r}") in err


def _child_env(**extra):
    """The environment of a new interpreter that imports this potline."""
    src = str(Path(potline.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **extra}


def _fresh_process(argv, **env):
    """Exit code, stdout and stderr of `python -m potline.cli argv` in a new
    interpreter, with env added to its environment."""
    done = subprocess.run([sys.executable, "-m", "potline.cli", *map(str, argv)],
                          capture_output=True, text=True, env=_child_env(**env), timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("value", ["abc", "-5", "0", "", " 5", "1_0", "\u0661", "5.0", "1" * 5000],
                         ids=["abc", "negative", "zero", "empty", "space", "underscore", "arabic-indic",
                              "decimal-point", "5000-digits"])
def test_malformed_budget_fails_every_command(files, value):
    # POTLINE_BUDGET is read once, at import, as a positive integer in
    # ASCII digits.  Importing never raises; each command exits 2 with one
    # error line that names the variable, even one that enumerates nothing.
    done = subprocess.run([sys.executable, "-c", "import potline.cli"],
                          capture_output=True, text=True, env=_child_env(POTLINE_BUDGET=value), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    # One argv per command, none of which enumerates anything; each bad
    # value is tried on the first.
    commands = [["generate", "--kind", "pmatrixlcp", "--d", "2"],
                ["reduce", files["plcp"], "--chain", "plcp:uso"],
                ["solve", files["plcp"], "--problem", "plcp", "--algo", "lemke"],
                ["verify", files["plcp"], files["plcp"], "--problem", "plcp"]]
    for argv in commands if value == "abc" else commands[:1]:
        code, out, err = _fresh_process(argv, POTLINE_BUDGET=value)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: POTLINE_BUDGET=") and err.count("\n") == 1, argv


def test_budget_is_read_from_the_environment():
    # 2^2 cones fit a budget of 4 (written with a leading zero); 2^3 do not.
    assert _fresh_process(["generate", "--kind", "uso", "--d", "2"], POTLINE_BUDGET="04")[0] == 0
    code, out, err = _fresh_process(["generate", "--kind", "uso", "--d", "3"], POTLINE_BUDGET="4")
    assert (code, out) == (2, "") and "checks all 2^3 cones, more than the budget 4" in err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_an_error_line(tmp_path, capsys, unbuffered):
    # The reader closes stdout before the run record is written, as
    # `solve ... | head -c 10` may.  The write fails in print (unbuffered)
    # or at main's flush (buffered); neither is an input error, and nothing
    # is left for the interpreter's flush at exit to fail on.
    nc = tmp_path / "nc.json"
    assert run(capsys, "generate", "--kind", "noncontraction", "--d", "2", "--seed", "3", "-o", str(nc))[0] == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "potline.cli", "solve", str(nc), "--problem", "contraction", "--algo", "findfp"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(PYTHONUNBUFFERED=unbuffered))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def _without_elapsed(out):
    if not out:
        return None
    record = json.loads(out)
    record.pop("elapsed")
    return record


@pytest.mark.parametrize("problem, first, second, left_over", [
    # 0110 is a vertex of the line in `files`.
    ("line", ["--algo", "follow", "--start", "0110"], ["--algo", "follow"], "start"),
    # The instance file has no eps, so a second call that saw the first
    # call's eps would solve instead of exiting 2.
    ("contraction", ["--algo", "approx", "--eps", "1/8"], ["--algo", "approx"], "eps"),
])
def test_calls_share_no_state(files, capsys, problem, first, second, left_over):
    argv = ["solve", files[problem], "--problem", problem]
    code, out, _ = run_err(capsys, *argv, *first)
    assert code == 0 and left_over in json.loads(out)["command"]
    code, out, err = run_err(capsys, *argv, *second)
    fresh_code, fresh_out, fresh_err = _fresh_process(argv + second)
    assert (code, err) == (fresh_code, fresh_err)
    assert _without_elapsed(out) == _without_elapsed(fresh_out)
    if out:
        assert left_over not in json.loads(out)["command"]


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


def test_reduce_and_generate_print_to_stdout(files, capsys):
    # Without --query, reduce reports the built chain; without -o, generate
    # prints the instance.
    code, out, err = run_err(capsys, "reduce", files["uso"], "--chain", "uso,opdc")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"chain": ["uso", "opdc"], "result": "ok", "kind": "opdc"}
    code, out, err = run_err(capsys, "generate", "--kind", "uso", "--d", "2", "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(files["uso"].read_text())


def test_verify_foreign_kind_is_a_variant_mismatch(files, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": "OV1", "level": 1, "p": [0], "q": [1]}))
    code, out, err = run_err(capsys, "verify", files["uso"], path, "--problem", "uso")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"accepted": False, "reason": "variant mismatch: OV1"}


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
    # Integer fields are JSON integers: no float, bool or string is truncated or parsed.
    ("plcp", {"kind": "PV1", "alpha": [0.9]}, "certificate field 'alpha': expected a JSON integer, got float"),
    ("plcp", {"kind": "PV3", "alpha": [0], "beta": [True]},
     "certificate field 'beta': expected a JSON integer, got bool"),
    ("opdc", {"kind": "O1", "p": [0.0, 0]}, "certificate field 'p': expected a JSON integer, got float"),
    ("opdc", {"kind": "OV3", "level": 1.5, "p": [0, 0]},
     "certificate field 'level': expected a JSON integer, got float"),
    ("uso", {"kind": "US1", "v": True}, "certificate field 'v': expected a bit string or an integer, got bool"),
    ("uso", {"kind": "US1", "v": "12"}, "certificate field 'v': expected a bit string or an integer, got str"),
    ("contraction", {"kind": "CMV3", "level": "1", "x": ["0"], "y": ["0"]},
     "certificate field 'level': expected a JSON integer, got str"),
    ("contraction", {"kind": "APPROX_FIX", "v": ["0"], "eps": "1/2", "p": 2.0},
     "certificate field 'p': expected a JSON integer, got float"),
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
    # Integer fields are JSON integers: no float, bool or string is truncated or parsed.
    ("opdc", {"k": [1.0], "D": {}}, "field 'k': expected a JSON integer, got float"),
    ("opdc", {"k": [1], "D": {" 0": ["up"]}}, "field 'D': table key ' 0' is not a grid point"),
    ("opdc", {"k": [1], "D": {"0,x": ["up"]}}, "field 'D': table key '0,x' is not a grid point"),
    ("uso", {"n": 2.0, "orient": {}}, "field 'n': expected a JSON integer, got float"),
    ("line", {"n": True, "S": {}}, "field 'n': expected a JSON integer, got bool"),
    ("line", {"n": 2, "m": 2.5, "S": {}}, "field 'm': expected a JSON integer, got float"),
    ("line", {"flavor": "ueopl", "n": 2, "S": {"00": "01"}, "P": {"01": "00"}, "V": {"01": 1.5}},
     "field 'V': expected a JSON integer, got float"),
    # Bit strings of line and USO tables: only 0 and 1, at least one digit, below 2^n.
    ("line", {"flavor": "eopl", "n": 1, "S": {"0": "111"}, "P": {"111": "0"}, "V": {"111": 1}},
     "field 'S': '111' is not a bit string of 1 bits"),
    ("line", {"n": 2, "S": {"0_0": "01"}}, "field 'S': '0_0' is not a bit string of 2 bits"),
    ("line", {"n": 2, "S": {"00": " 01"}}, "field 'S': ' 01' is not a bit string of 2 bits"),
    ("line", {"n": 2, "S": {"00": "01"}, "P": {"+1": "00"}}, "field 'P': '+1' is not a bit string of 2 bits"),
    ("line", {"n": 2, "S": {"00": "01"}, "V": {"": 1}}, "field 'V': '' is not a bit string of 2 bits"),
    ("line", {"n": 2, "S": {"00": 1}}, "field 'S': 1 is not a bit string of 2 bits"),
    ("uso", {"n": 1, "orient": {"0": "1", "1": "0", "10": "0"}}, "field 'orient': '10' is not a bit string of 1 bits"),
    ("uso", {"n": 1, "orient": {"0": "1", " 1": "0_0"}}, "field 'orient': ' 1' is not a bit string of 1 bits"),
    ("uso", {"n": 1, "orient": {"0": "1", "1": "0b0"}}, "field 'orient': '0b0' is not a bit string of 1 bits"),
    # A direction is "up", "down" or "zero"; a grid width is at least 0.
    ("opdc", {"k": [1], "D": {"0": ["sideways"], "1": [3]}},
     "field 'D': direction 'sideways' is not one of 'up', 'down', 'zero'"),
    ("opdc", {"k": [-1], "D": {}}, "field 'k': grid width -1 is negative"),
    # A JSON true is no rational 1.
    ("plcp", {"M": [[True]], "q": [-1]}, "field 'M': cannot interpret True as an exact rational"),
    # A rational is an integer or num/den in ASCII digits; Fraction() reads these.
    ("plcp", {"M": [["1e1"]], "q": ["-1"]}, "field 'M': '1e1' is not an integer or num/den"),
    ("plcp", {"M": [["1"]], "q": [" -1/2 "]}, "field 'q': ' -1/2 ' is not an integer or num/den"),
    ("contraction", {"circuit": {"d": 1, "outputs": [0], "gates": [{"op": "input", "args": [0]}]},
                     "c": "0.5", "p": 2}, "field 'c': '0.5' is not an integer or num/den"),
    # Two keys of one table that name one point or vertex.
    ("opdc", {"k": [1], "D": {"0": ["up"], "00": ["down"], "1": ["down"]}},
     "field 'D': table keys '0' and '00' name one entry"),
    ("uso", {"n": 1, "orient": {"1": "0", "0": "1", "001": "1"}},
     "field 'orient': table keys '1' and '001' name one entry"),
    ("line", {"n": 2, "S": {"00": "01", "000": "10"}}, "field 'S': table keys '00' and '000' name one entry"),
    ("line", {"n": 2, "S": {"00": "01"}, "P": {"01": "00", "1": "00"}},
     "field 'P': table keys '01' and '1' name one entry"),
    ("line", {"n": 2, "S": {"00": "01"}, "V": {"01": 1, "001": 1}},
     "field 'V': table keys '01' and '001' name one entry"),
])
def test_malformed_instance_exits_2(tmp_path, capsys, problem, instance, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_err(capsys, "solve", path, "--problem", problem, "--algo", "brute")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not a {problem} instance: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, problem, field, argv", [
    ("line", "line", "m", ["verify", "{inst}", "{cert}"]),
    ("line", "line", "n", ["verify", "{inst}", "{cert}"]),
    ("line", "line", "m", ["solve", "{inst}", "--algo", "follow"]),
    ("uso", "uso", "n", ["solve", "{inst}", "--algo", "brute"]),
])
def test_huge_bit_count_exits_2(tmp_path, capsys, kind, problem, field, argv):
    # n or m = 2^70 died in 1 << n with an OverflowError traceback and exit
    # 1, which `verify` uses for "rejected"; it is refused where it is read.
    inst, rec, cert_path = tmp_path / "inst.json", tmp_path / "rec.json", tmp_path / "cert.json"
    gen = ["--kind", "explicitline", "--length", "6"] if kind == "line" else ["--kind", "uso", "--d", "2"]
    algo = "follow" if kind == "line" else "brute"
    assert run_err(capsys, "generate", *gen, "--seed", "1", "-o", inst)[0] == 0
    assert run_err(capsys, "solve", inst, "--problem", problem, "--algo", algo, "-o", rec)[0] == 0
    cert_path.write_text(json.dumps(json.loads(rec.read_text())["certificate"]))
    data = json.loads(inst.read_text())
    data[field] = 1 << 70
    inst.write_text(json.dumps(data))
    argv = [a.format(inst=inst, cert=cert_path) for a in argv]
    message = (f"error: {inst} is not a {problem} instance: field {field!r}: "
               f"expected a bit count in [0, {MAX_BITS}], got {1 << 70}\n")
    assert run_err(capsys, *argv, "--problem", problem) == (2, "", message)


@pytest.mark.parametrize("problem, data", [
    ("line", {"n": 1 << 40, "S": {"0": "1"}, "P": {"1": "0"}, "V": {"1": 1}}),
    ("line", {"n": 1, "m": 1 << 40, "S": {"0": "1"}}),
    ("uso", {"n": 1 << 40, "orient": {"0": "0"}}),
])
def test_huge_bit_count_is_refused_before_anything_is_built(problem, data):
    # 2^(2^40) is a 128 GiB int: the loader refuses n or m before any 1 << n.
    with pytest.raises(BadField, match=f"expected a bit count in \\[0, {MAX_BITS}\\]"):
        KINDS[problem].from_json(data)


@pytest.mark.parametrize("problem, data", [
    ("line", {"n": 64, "m": 64, "S": {"0": "1" * 64}, "P": {"1" * 64: "0"}, "V": {"1" * 64: (1 << 64) - 1}}),
    ("uso", {"n": 64, "orient": {"0": "0"}}),
])
def test_64_bit_sources_are_read(problem, data):
    inst = KINDS[problem].from_json(data)
    assert inst.n == 64


# f(x) = (x_0 / 2 + 1/4, 1/4) as a JSON contraction map.
_MAP = {"circuit": {"d": 2, "outputs": [4, 3], "gates": [
    {"op": "input", "args": [0]}, {"op": "input", "args": [1]}, {"op": "scale", "args": ["1/2", 0]},
    {"op": "const", "args": ["1/4"]}, {"op": "add", "args": [2, 3]}]}, "c": "1/2", "p": 2}


# M = [[2, 1], [1, 2]], q = (-1, -1), and a two-edge line 00 -> 01 -> 10 with
# potentials 0, 1, 2, on which 11 is no vertex.
_LCP = {"M": [["2", "1"], ["1", "2"]], "q": ["-1", "-1"]}
_LINE = {"n": 2, "m": 2, "S": {"00": "01", "01": "10"}, "P": {"01": "00", "10": "01"}, "V": {"01": 1, "10": 2}}


@pytest.mark.parametrize("problem, instance, certificate, reason", [
    ("plcp", _LCP, {"kind": "Q1", "y": ["-1", "0"]}, "nonnegativity y_1 < 0"),
    ("plcp", _LCP, {"kind": "Q1", "y": ["0", "0"]}, "feasibility w_1 < 0"),
    ("contraction", _MAP, {"kind": "CM1", "x": ["2", "0"]}, "point outside the unit box"),
    ("contraction", _MAP, {"kind": "CM1", "x": ["0", "1/4"]}, "f(x)_1 != x_1"),
    ("line", dict(_LINE, flavor="ueopl"), {"kind": "UV3", "x": "01", "y": "01"}, "points coincide"),
    ("line", dict(_LINE, flavor="ueopl"), {"kind": "UV3", "x": "01", "y": "11"}, "a point is not a vertex"),
    ("line", dict(_LINE, flavor="ufeopl"), {"kind": "UFV1", "x": "00", "y": "01"},
     "V(y) neither equals V(x) nor lies in (V(x), V(S(x)))"),
    ("plcp", _LCP, {"kind": "PV1", "alpha": []}, "nonempty alpha = {}"),
    ("plcp", _LCP, {"kind": "PV1", "alpha": [0, 2]}, "label 2 outside 0..1"),
    ("plcp", _LCP, {"kind": "PV1", "alpha": [0, 1]}, "principal minor det(M_alpha,alpha) > 0"),
    ("plcp", _LCP, {"kind": "PV2", "x": ["1"]}, "dimension mismatch"),
    ("plcp", _LCP, {"kind": "PV2", "x": ["0", "0"]}, "nonzero x = 0"),
    ("plcp", _LCP, {"kind": "PV2", "x": ["1", "-1/2"]}, "sign reversal x_1 (M x)_1 > 0"),
])
def test_verify_explains_the_failed_clause(tmp_path, capsys, problem, instance, certificate, reason):
    inst, path = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(json.dumps(instance))
    path.write_text(json.dumps(certificate))
    code, out = run(capsys, "verify", str(inst), str(path), "--problem", problem)
    assert code == 1
    assert json.loads(out) == {"accepted": False, "kind": certificate["kind"], "reason": reason}


@pytest.mark.parametrize("edit, message", [
    (None, None),
    (lambda m: m.update(p=2.9), "field 'p': expected a JSON integer, got float"),
    (lambda m: m.update(p="2"), "field 'p': expected a JSON integer, got str"),
    (lambda m: m["circuit"].update(d=2.9), "field 'circuit': field 'd': expected a JSON integer, got float"),
    (lambda m: m["circuit"].update(outputs=[2.2, 4]),
     "field 'circuit': field 'outputs': expected a JSON integer, got float"),
    (lambda m: m["circuit"]["gates"][0].update(args=[True]),
     "field 'circuit': gate 0 arg 0: expected a JSON integer, got bool"),
    (lambda m: m["circuit"]["gates"][1].update(args=["0"]),
     "field 'circuit': gate 1 arg 0: expected a JSON integer, got str"),
    (lambda m: m["circuit"]["gates"][2].update(args=["1/2", 0.0]),
     "field 'circuit': gate 2 arg 1: expected a JSON integer, got float"),
    (lambda m: m["circuit"]["gates"][4].update(args=[2, 3, 0]), "field 'circuit': gate 4 (add): expected 2 args, got 3"),
    (lambda m: m["circuit"]["gates"][0].update(args=[]), "field 'circuit': gate 0 (input): expected 1 arg, got 0"),
    (lambda m: m["circuit"]["gates"][3].update(args="1/4"), "field 'circuit': gate 3 (const): expected 1 arg, got str"),
])
def test_contraction_integers_are_read_strictly(tmp_path, capsys, edit, message):
    # int() would truncate 2.9 to 2, read True and "0" as indices, and an
    # empty args list would be an IndexError.
    data = json.loads(json.dumps(_MAP))
    if edit is not None:
        edit(data)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out, err = run_err(capsys, "solve", path, "--problem", "contraction", "--algo", "findfp")
    if message is None:
        assert (code, err) == (0, "") and json.loads(out)["certificate"] == {"kind": "CM1", "x": ["1/2", "1/4"]}
    else:
        assert (code, out, err) == (2, "", f"error: {path} is not a contraction instance: {message}\n")


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


def test_huge_kappa_exits_2(tmp_path, capsys):
    # 1 << H in the search died with an OverflowError and exit 1.
    inst = tmp_path / "map.json"
    run_err(capsys, "generate", "--kind", "contractioncircuit", "--d", "2", "--seed", "1", "-o", inst)
    data = json.loads(inst.read_text())
    data["kappa"] = [1 << 70, 3]
    inst.write_text(json.dumps(data))
    message = (f"error: {inst} is not a contraction instance: field 'kappa': "
               f"expected entries up to {MAX_KAPPA}, got {1 << 70}\n")
    assert run_err(capsys, "solve", inst, "--problem", "contraction", "--algo", "findfp") == (2, "", message)


def test_huge_kappa_is_refused_before_anything_is_built(monkeypatch):
    # A kappa of 2^40 would build a 2^41-bit denominator before the first
    # probe; the loader refuses it before the circuit is compiled.
    monkeypatch.setattr(circuits, "_make", None)
    data = KINDS["contraction"].to_json(gen_contraction(2, 1))
    for kappa in ([1 << 40, 3], [3, MAX_KAPPA + 1]):
        with pytest.raises(BadField, match=f"field 'kappa': expected entries up to {MAX_KAPPA}"):
            KINDS["contraction"].from_json({**data, "kappa": kappa})
    # The bound admits the closed-form kappa of the generated maps.
    for d in range(1, 7):
        inst = gen_contraction(d, 0)
        kappa = compute_kappa(inst.circuit)
        assert KINDS["contraction"].from_json({**KINDS["contraction"].to_json(inst), "kappa": list(kappa)}).kappa == kappa
    assert KINDS["contraction"].from_json({**data, "kappa": [MAX_KAPPA, 1]}).kappa == (MAX_KAPPA, 1)


def test_zero_denominator_exits_2(files, tmp_path, capsys):
    contraction = json.loads(files["contraction"].read_text())
    cases = [(["solve", files["contraction"], "--problem", "contraction", "--algo", "approx", "--eps", "1/0"],
              "error: '1/0' has a zero denominator\n")]
    for name, problem, data in [("c", "contraction", {**contraction, "c": "1/0"}),
                                ("eps", "contraction", {**contraction, "eps": "1/0"}),
                                ("M", "plcp", {"M": [["1/0"]], "q": ["-1"]})]:
        path = tmp_path / f"zero_{name}.json"
        path.write_text(json.dumps(data))
        algo = "findfp" if problem == "contraction" else "lemke"
        cases.append((["solve", path, "--problem", problem, "--algo", algo],
                      f"error: {path} is not a {problem} instance: field '{name}': '1/0' has a zero denominator\n"))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"kind": "CM1", "x": ["1/0"]}))
    cases.append((["verify", files["contraction"], cert, "--problem", "contraction"],
                  "error: certificate field 'x': '1/0' has a zero denominator\n"))
    for argv, message in cases:
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
