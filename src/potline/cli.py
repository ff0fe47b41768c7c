"""Batch command-line front end: generate | reduce | solve | verify.

Instances travel as JSON files; every solve emits a machine-readable run
record whose certificate has already been re-verified.  Violation
certificates are answers, so they exit 0; only I/O, parse, and budget
errors are nonzero.  POTLINE_BUDGET caps enumeration sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from . import generators, problems, reductions_lcp, reductions_line, reductions_opdc, solvers
from .problems import cert_to_json
from .rational import frac

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


class BadChain(ValueError):
    pass


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _load(path, problem):
    with open(path) as fh:
        data = json.load(fh)
    return problems.KINDS[problem].from_json(data), data


def _stage_kind(stage: str) -> str:
    return "line" if stage in _LINE_STAGES else stage


def apply_chain(inst, chain):
    """Compose reduction stages; chain[0] names the input problem."""
    cur_kind = chain[0]
    cur = inst
    for stage in chain[1:]:
        if (cur_kind, stage) not in _CHAIN_STEPS:
            raise BadChain(f"no reduction {cur_kind} -> {stage}")
        cur = _CHAIN_STEPS[(cur_kind, stage)](cur)
        cur_kind = stage
    return cur, cur_kind


def cmd_generate(args):
    problem, build = _GENERATORS[args.kind]
    data = problems.KINDS[problem].to_json(build(args))
    out = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_reduce(args):
    chain = [s for part in args.chain.split(",") for s in part.split(":") if s]
    if len(chain) < 2:
        raise BadChain("chain needs a source and at least one target")
    inst, _ = _load(args.file, _stage_kind(chain[0]))
    view, kind = apply_chain(inst, chain)
    if not args.query:
        print(json.dumps({"chain": chain, "result": "ok", "kind": kind}))
        return 0
    q = args.query
    if q[0] in ("S", "P", "V"):
        x = int(q[1], 2)
        fn = {"S": view.S, "P": view.P, "V": view.V}[q[0]]
        val = fn(x)
        out = problems.bits_str(val, view.n) if q[0] in ("S", "P") else val
        print(json.dumps({"query": q, "answer": out}))
    elif q[0] == "D":
        i = int(q[1])
        p = tuple(int(t) for t in q[2].replace(",", " ").split())
        print(json.dumps({"query": q, "answer": view.D(i, p)}))
    else:
        raise BadChain(f"unknown query {q[0]}")
    return 0


def _solve_dispatch(inst, args):
    stats = solvers.RunStats()
    algo = args.algo
    if algo == "lemke":
        c = solvers.lemke(inst, stats=stats)
    elif algo == "follow":
        c = solvers.follow_line(inst, start=int(args.start, 2) if args.start else 0, stats=stats)
    elif algo == "aldous":
        rng = random.Random(args.seed)
        c = solvers.aldous(inst, samples=args.samples, rng=rng, stats=stats)
    elif algo == "findfp":
        c = solvers.find_fp(inst, stats=stats)
    elif algo == "approx":
        eps = frac(args.eps) if args.eps else inst.eps
        c = solvers.approx_find_fp(inst, eps=eps, stats=stats)
    elif algo == "brute":
        certs = solvers.brute_force(inst, budget=BUDGET)
        return certs[0] if certs else None, stats
    else:
        raise ValueError(f"unknown algorithm {algo}")
    return c, stats


def cmd_solve(args):
    inst, data = _load(args.file, args.problem)
    if args.problem == "contraction" and args.eps:
        inst.eps = frac(args.eps)
    if args.p and args.problem == "contraction":
        inst.p = args.p
    t0 = time.monotonic()
    c, stats = _solve_dispatch(inst, args)
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
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_verify(args):
    inst, _ = _load(args.instance, args.problem)
    with open(args.cert) as fh:
        c = problems.cert_from_json(json.load(fh), args.problem)
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
    s.add_argument("--algo", required=True,
                   choices=["lemke", "follow", "aldous", "findfp", "approx", "brute"])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=64)
    s.add_argument("--start", default=None)
    s.add_argument("--eps", default=None)
    s.add_argument("--p", type=int, default=None)
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
    except (BadChain, ValueError, solvers.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
