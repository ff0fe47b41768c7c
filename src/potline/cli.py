"""Batch command-line front end: generate | reduce | solve | verify.

Instances travel as JSON files; every solve emits a machine-readable run
record whose certificate has already been re-verified.  Violation
certificates are answers, so they exit 0; `verify` exits 1 on a rejected
certificate, and input and budget errors exit 2 with an `error:` line.
POTLINE_BUDGET caps enumeration sizes.

`-o` writes its output as a new file: an existing file at the path is
unlinked, not truncated, so a hard link to the old file keeps the old
content.  A symlink is written through (its target gets the output and the
link stays).  Nothing is fsynced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import stat
import sys
import time

from . import generators, problems, reductions_lcp, reductions_line, reductions_opdc, solvers
from .problems import cert_to_json

BUDGET = int(os.environ.get("POTLINE_BUDGET", str(1 << 16)))

# --kind of `generate` -> (problem kind, builder from the parsed arguments).
_GENERATORS = {
    "pmatrixlcp": ("plcp", lambda a: generators.gen_lcp(a.d, a.seed, p_matrix=True)),
    "nonpmatrixlcp": ("plcp", lambda a: generators.gen_lcp(a.d, a.seed, p_matrix=False)),
    "uso": ("uso", lambda a: generators.gen_uso(a.d, a.seed, broken=False)),
    "brokenuso": ("uso", lambda a: generators.gen_uso(a.d, a.seed, broken=True)),
    "contractioncircuit": (
        "contraction", lambda a: generators.gen_contraction(a.d, a.seed, p=a.p, contracting=True)),
    "noncontraction": (
        "contraction", lambda a: generators.gen_contraction(a.d, a.seed, p=a.p, contracting=False)),
    "explicitline": (
        "line", lambda a: generators.gen_line(a.length, a.seed, flavor=a.flavor, two_lines=False)),
    "multiline": (
        "line", lambda a: generators.gen_line(a.length, a.seed, flavor=a.flavor, two_lines=True)),
}

_CHAIN_STEPS = {
    ("plcp", "uso"): reductions_lcp.plcp_to_uso,
    ("plcp", "eopl"): lambda inst: reductions_lcp.plcp_to_eopl(inst)[0],
    ("uso", "opdc"): reductions_opdc.uso_to_opdc,
    ("contraction", "opdc"): reductions_opdc.contraction_to_opdc,
    ("opdc", "ufeopl"): lambda inst: reductions_opdc.opdc_to_ufeopl(inst)[0],
    ("ufeopl", "plus1"): lambda inst: reductions_line.ufeopl_to_plus1(inst)[0],
    ("plus1", "ueopl"): lambda inst: reductions_line.plus1_to_ueopl(inst)[0],
    ("ueopl", "normalized"): lambda inst: reductions_line.normalize_potentials(inst)[0],
    ("ueopl", "opdc"): lambda inst: reductions_line.ueopl_to_opdc(inst)[0],
    ("eoml", "eopl"): lambda inst: reductions_line.eoml_to_eopl(inst)[0],
    ("eopl", "eoml"): lambda inst: reductions_line.eopl_to_eoml(inst)[0],
}

_LINE_STAGES = {"eopl", "ueopl", "eoml", "ufeopl", "plus1", "normalized", "line"}

# --query letter of `reduce` -> (the view kind it applies to, its argument count).
_QUERIES = {"S": ("line", 1), "P": ("line", 1), "V": ("line", 1), "D": ("opdc", 2)}

# --algo of `solve` -> (the problem it solves, None for any, run(inst, args, stats)).
_ALGOS = {
    "lemke": ("plcp", lambda inst, a, st: solvers.lemke(inst, stats=st)),
    "follow": ("line", lambda inst, a, st: solvers.follow_line(
        inst, start=_vertex_id(a.start, inst.n) if a.start else 0, stats=st)),
    "aldous": ("line", lambda inst, a, st: solvers.aldous(
        inst, samples=a.samples, rng=random.Random(a.seed), stats=st)),
    "findfp": ("contraction", lambda inst, a, st: solvers.find_fp(inst, stats=st)),
    "approx": ("contraction", lambda inst, a, st: solvers.approx_find_fp(inst, eps=a.eps, stats=st, p=a.p)),
    "brute": (None, lambda inst, a, st: next(iter(solvers.brute_force(inst, budget=BUDGET)), None)),
}


class UsageError(ValueError):
    """An unknown chain step, a query the view lacks, or an algorithm of
    another problem."""


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _read_object(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def _load(path, problem):
    data = _read_object(path)
    try:
        return problems.KINDS[problem].from_json(data), data
    except KeyError as exc:
        raise problems.MissingField(f"{path} is not a {problem} instance: no field {exc}") from None
    except problems.BadField as exc:
        raise problems.BadField(f"{path} is not a {problem} instance: {exc}") from None


def _write_output(path, text: str) -> None:
    """Write text to the -o file at path.  An existing regular file is
    unlinked and a new one created: truncating a non-empty file, or
    renaming over it, makes ext4 flush it at close (tens of ms), while a
    new file costs microseconds.  Anything else (a missing path, a symlink,
    a special file such as /dev/stdout) is opened and written through."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


def _vertex_id(bits: str, n: int) -> int:
    """The vertex id a bit string names: only the digits 0 and 1, at least
    one, and the value must fit in n bits."""
    if not bits or bits.strip("01") or int(bits, 2) >> n:
        raise UsageError(f"vertex {bits} is not an id of {n} bits")
    return int(bits, 2)


def _stage_kind(stage: str) -> str:
    return "line" if stage in _LINE_STAGES else stage


def apply_chain(inst, chain):
    """Compose reduction stages; chain[0] names the input problem."""
    for step in zip(chain, chain[1:]):
        if step not in _CHAIN_STEPS:
            raise UsageError(f"no reduction {step[0]} -> {step[1]}")
        inst = _CHAIN_STEPS[step](inst)
    return inst


def cmd_generate(args):
    problem, build = _GENERATORS[args.kind]
    data = problems.KINDS[problem].to_json(build(args))
    out = json.dumps(data, indent=2)
    if args.output:
        _write_output(args.output, out + "\n")
    else:
        print(out)
    return 0


def cmd_reduce(args):
    chain = [s for part in args.chain.split(",") for s in part.split(":") if s]
    if len(chain) < 2:
        raise UsageError("chain needs a source and at least one target")
    q = args.query
    if q:
        if q[0] not in _QUERIES:
            raise UsageError(f"unknown query {q[0]}; use one of {', '.join(_QUERIES)}")
        applies_to, nargs = _QUERIES[q[0]]
        if _stage_kind(chain[-1]) != applies_to:
            raise UsageError(f"--query {q[0]} applies to {applies_to} views, not {chain[-1]}")
        if len(q) != 1 + nargs:
            raise UsageError(f"--query {q[0]} takes {nargs} argument(s), got {len(q) - 1}")
    try:
        view = apply_chain(_load(args.file, _stage_kind(chain[0]))[0], chain)
    except reductions_line.TrivialInstance as t:
        # An EOPL stage that 0 or S(0) solves: its certificate is the answer
        # and there is no view to query.
        print(json.dumps({"chain": chain, "result": "trivial",
                          "certificate": cert_to_json(t.certificate)}))
        return 0
    if not q:
        print(json.dumps({"chain": chain, "result": "ok", "kind": chain[-1]}))
        return 0
    if q[0] == "D":
        i = int(q[1])
        if not 0 <= i < view.d:
            raise UsageError(f"dimension {i} outside 0..{view.d - 1}")
        answer = view.D(i, tuple(int(t) for t in q[2].replace(",", " ").split()))
    else:
        val = getattr(view, q[0])(_vertex_id(q[1], view.n))
        answer = val if q[0] == "V" else problems.bits_str(val, view.n)
    print(json.dumps({"query": q, "answer": answer}))
    return 0


def cmd_solve(args):
    problem, run = _ALGOS[args.algo]
    if problem not in (None, args.problem):
        raise UsageError(f"--algo {args.algo} solves {problem}, not {args.problem}")
    inst, data = _load(args.file, args.problem)
    stats = solvers.RunStats()
    t0 = time.monotonic()
    c = run(inst, args, stats)
    elapsed = time.monotonic() - t0
    record = {
        "command": {k: v for k, v in vars(args).items() if k != "func" and v is not None},
        "instance_digest": _digest(data),
        "certificate": cert_to_json(c) if c is not None else None,
        "verified": c is not None and problems.verify(inst, c),
        "counters": {
            "steps": stats.steps,
            "pivots": stats.pivots,
            "oracleCalls": stats.oracle_calls,
        },
        "seed": args.seed,
        "elapsed": elapsed,
    }
    out = json.dumps(record, indent=2, default=str)
    if args.output:
        _write_output(args.output, out + "\n")
    else:
        print(out)
    return 0


def cmd_verify(args):
    inst, _ = _load(args.instance, args.problem)
    c = problems.cert_from_json(_read_object(args.cert), args.problem)
    try:
        ok = problems.verify(inst, c)
    except problems.VariantMismatch as exc:
        print(json.dumps({"accepted": False, "reason": f"variant mismatch: {exc}"}))
        return 1
    report = {"accepted": bool(ok), "kind": c.kind}
    if not ok:
        report["reason"] = problems.explain_rejection(inst, c)
    print(json.dumps(report))
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="potline")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit a seeded instance as JSON")
    g.add_argument("--kind", required=True, choices=list(_GENERATORS))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--p", type=int, default=2)
    g.add_argument("--length", type=int, default=8)
    g.add_argument("--flavor", default="ueopl")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("reduce", help="compose lazy reduction views and query them")
    r.add_argument("file")
    r.add_argument("--chain", required=True,
                   help="source:target[:target...] or comma separated, e.g. plcp:eopl")
    r.add_argument("--query", nargs="+", default=None,
                   help="S <bits> | P <bits> | V <bits> | D <dim> <point>")
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("solve", help="run a solver and emit a run record")
    s.add_argument("file")
    s.add_argument("--problem", required=True, choices=list(problems.KINDS))
    s.add_argument("--algo", required=True, choices=list(_ALGOS))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=64)
    s.add_argument("--start", default=None)
    s.add_argument("--eps", default=None, help="approx tolerance (default: the instance's)")
    s.add_argument("--p", type=int, default=None, help="approx norm index (default: the instance's)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="check a certificate against an instance")
    v.add_argument("instance")
    v.add_argument("cert")
    v.add_argument("--problem", required=True, choices=list(problems.KINDS))
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, solvers.BudgetExceeded, solvers.Exhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
