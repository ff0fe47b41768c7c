"""Batch command-line front end: generate | reduce | solve | verify.

Instances travel as JSON files; every solve emits a machine-readable run
record whose certificate has already been re-verified.  Violation
certificates are answers, so they exit 0; `verify` exits 1 on a rejected
certificate, input and budget errors (a malformed option among them)
exit 2 with an `error:` line, and a stdout closed by its reader exits 141
(128 + SIGPIPE) with no such line.
POTLINE_BUDGET, read once as `solvers.BUDGET`, caps enumeration sizes:
brute force, and the generators that check every cone; a malformed one
fails every command.

The argument parser is built once per process (`build_parser` is cached),
so an in-process caller of `main` pays only for parsing.  `main` picks the
command's `cmd_*` function on each call, not from the parser, so rebinding
one (a test's monkeypatch, a tracer's wrapper) takes effect.

`-o` writes its output as a new file: an existing file at the path is
unlinked, not truncated, so a hard link to the old file keeps the old
content.  A symlink is written through (its target gets the output and the
link stays).  Nothing is fsynced.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import hashlib
import json
import os
import random
import stat
import sys
import time

from . import generators, problems, reductions_lcp, reductions_line, reductions_opdc, solvers
from .problems import cert_to_json
from .rational import integer

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

# Generators that check all 2^d cones; `generate` caps 2^d at solvers.BUDGET.
_CONE_SCANS = {"nonpmatrixlcp", "uso", "brokenuso"}

# (source stage, target stage) -> the reduction view class.  A stage that is
# not a problem kind of `problems.KINDS` is a line stage named by its flavor
# (Lemke's line is a UniqueEOPL line); `normalized` is a UniqueEOPL line whose
# every edge raises the potential by exactly 1.
REDUCTIONS = {
    ("plcp", "uso"): reductions_lcp.PlcpToUso,
    ("plcp", "ueopl"): reductions_lcp.PlcpLineView,
    ("uso", "opdc"): reductions_opdc.UsoToOpdc,
    ("contraction", "opdc"): reductions_opdc.ContractionToOpdc,
    ("opdc", "ufeopl"): reductions_opdc.OpdcLineView,
    ("ufeopl", "plus1"): reductions_line.UfeoplToPlus1,
    ("plus1", "ueopl"): reductions_line.PebblingView,
    ("ueopl", "normalized"): reductions_line.NormalizeView,
    ("normalized", "opdc"): reductions_line.UeoplToOpdc,
    ("eoml", "eopl"): reductions_line.EomlToEopl,
    ("eopl", "eoml"): reductions_line.EoplToEoml,
}

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
    "brute": (None, lambda inst, a, st: next(solvers.certificates(inst), None)),
}


class UsageError(ValueError):
    """A malformed command line, an unknown chain step, a query the view
    lacks, or an algorithm of another problem."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are `UsageError`s, so that `main`
    reports them like every other input error."""

    def error(self, message):
        raise UsageError(message)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _read_object(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to parse") from None
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
    """`problems.bits_int`, as a usage error."""
    try:
        return problems.bits_int(bits, n)
    except ValueError:
        raise UsageError(f"vertex {bits} is not an id of {n} bits") from None


def _reductions(chain) -> list:
    """The view classes of chain's steps; raises on an unknown step."""
    for step in zip(chain, chain[1:]):
        if step not in REDUCTIONS:
            raise UsageError(f"no reduction {step[0]} -> {step[1]}")
    return [REDUCTIONS[step] for step in zip(chain, chain[1:])]


def compose(src, chain):
    """Reduce src, an instance of stage chain[0], along the chain; an unknown
    step raises before anything is built.  Returns the last image and its
    map_back, which applies every stage's map-back, last stage first."""
    backs = []
    for cls in _reductions(chain):
        view = cls(src)
        src = view.image()
        backs.append(view.map_back)

    def map_back(c):
        for back in reversed(backs):
            c = back(c)
        return c

    return src, map_back


def cmd_generate(args):
    problem, build = _GENERATORS[args.kind]
    # 2^d > BUDGET, without building 2^d.
    if args.kind in _CONE_SCANS and args.d >= solvers.BUDGET.bit_length():
        raise solvers.Exhausted(f"--kind {args.kind} checks all 2^{args.d} cones, "
                                f"more than the budget {solvers.BUDGET} (POTLINE_BUDGET)")
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
    _reductions(chain)
    source, target = (s if s in problems.KINDS else "line" for s in (chain[0], chain[-1]))
    q = args.query
    if q:
        if q[0] not in _QUERIES:
            raise UsageError(f"unknown query {q[0]}; use one of {', '.join(_QUERIES)}")
        applies_to, nargs = _QUERIES[q[0]]
        if target != applies_to:
            raise UsageError(f"--query {q[0]} applies to {applies_to} views, not {chain[-1]}")
        if len(q) != 1 + nargs:
            raise UsageError(f"--query {q[0]} takes {nargs} argument(s), got {len(q) - 1}")
    try:
        image, _ = compose(_load(args.file, source)[0], chain)
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
        try:
            dim = integer(q[1], signed=False)
        except ValueError as exc:
            raise UsageError(f"--query D dimension {exc}") from None
        if dim >= image.d:
            raise UsageError(f"dimension {dim} outside 0..{image.d - 1}")
        try:
            p = problems.grid_key(q[2])
        except ValueError:
            raise UsageError(f"--query D point {q[2]!r} is not decimal integers split by commas") from None
        answer = json.dumps(image.D(dim, p))
    else:
        val = getattr(image, q[0])(_vertex_id(q[1], image.n))
        # json.dumps writes an int through str(), which refuses more than
        # 4300 digits (sys.get_int_max_str_digits); a Lemke potential can
        # have that many at d = 11.  Decimal(val) converts exactly, unlimited.
        answer = decimal.Decimal(val) if q[0] == "V" else json.dumps(problems.bits_str(val, image.n))
    print(f'{{"query": {json.dumps(q)}, "answer": {answer}}}')
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
        "command": {k: v for k, v in vars(args).items() if v is not None},
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
    c = problems.cert_from_json(_read_object(args.cert), args.problem, getattr(inst, "n", None))
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


@functools.cache
def build_parser():
    ap = _Parser(prog="potline")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit a seeded instance as JSON")
    g.add_argument("--kind", required=True, choices=list(_GENERATORS))
    g.add_argument("--seed", type=integer, default=0)
    g.add_argument("--d", type=integer, default=3)
    g.add_argument("--p", type=integer, default=2)
    g.add_argument("--length", type=integer, default=8)
    g.add_argument("--flavor", default="ueopl")
    g.add_argument("-o", "--output")

    r = sub.add_parser("reduce", help="compose lazy reduction views and query them")
    r.add_argument("file")
    r.add_argument("--chain", required=True,
                   help="source:target[:target...] or comma separated, e.g. plcp:ueopl")
    r.add_argument("--query", nargs="+", default=None,
                   help="S <bits> | P <bits> | V <bits> | D <dim> <x0,x1,...>")

    s = sub.add_parser("solve", help="run a solver and emit a run record")
    s.add_argument("file")
    s.add_argument("--problem", required=True, choices=list(problems.KINDS))
    s.add_argument("--algo", required=True, choices=list(_ALGOS))
    s.add_argument("--seed", type=integer, default=0)
    s.add_argument("--samples", type=integer, default=64)
    s.add_argument("--start", default=None)
    s.add_argument("--eps", default=None, help="approx tolerance (default: the instance's)")
    s.add_argument("--p", type=integer, default=None, help="approx norm index (default: the instance's)")
    s.add_argument("-o", "--output")

    v = sub.add_parser("verify", help="check a certificate against an instance")
    v.add_argument("instance")
    v.add_argument("cert")
    v.add_argument("--problem", required=True, choices=list(problems.KINDS))
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"generate": cmd_generate, "reduce": cmd_reduce, "solve": cmd_solve,
                   "verify": cmd_verify}[args.cmd]
        solvers.default_budget()  # a malformed POTLINE_BUDGET fails every command
        status = command(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # Not an input error.  /dev/null under stdout's descriptor (if it has
        # one) takes the output left in its buffer at exit.
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, solvers.Exhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
