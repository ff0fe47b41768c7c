"""Workloads of the potline benchmark.

A workload is a list of cycles; a cycle is a fixed list of operations.
Building the workload is set-up: it generates the instances, writes the
instance files and constructs the reduction views.  One operation (op)
takes an instance in memory or on disk to a certificate of the *source*
instance that passes `problems.verify`, including every map-back.

Every potline function is reached through its module (`solvers.lemke`,
never a name imported into this file), so the traced run sees the wrapped
functions that the tracer installs on those modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from potline import (
    cli,
    generators,
    problems,
    reductions_lcp,
    reductions_line,
    reductions_opdc,
    solvers,
)

# Failure reasons ("<exception type>: <message>", as worker.run_pass formats
# them) of the two open defects described in README.md.  An op marked with
# one of these tags may fail with exactly this reason; it then counts as
# failed but does not make the run incorrect.  Any other failure does.  Once
# a defect is fixed, its ops simply verify.
KNOWN_DEFECTS = {
    "chain-d1-stall": "Exhausted: walk stalled at non-vertex 0",
    "approx-no-eps": (
        "OpFailed: verify rejected the certificate: variant mismatch: "
        "APPROX_FIX needs an approximate-mode instance"
    ),
}


class OpFailed(Exception):
    """The op produced no verified source certificate or broke its invariant."""


def check(cond: bool, reason: str) -> None:
    if not cond:
        raise OpFailed(reason)


@dataclass
class Outcome:
    """What an op produced: a canonical form of the source certificate and
    the solver counters (steps, pivots, oracle calls)."""

    cert: str
    steps: int
    pivots: int
    oracle_calls: int


@dataclass
class Op:
    kind: str
    run: Callable[[], Outcome]
    defect: str | None = None


@dataclass
class Workload:
    cycles: list[list[Op]]
    instance_seeds: dict


def _outcome(c, stats) -> Outcome:
    return Outcome(repr(c), stats.steps, stats.pivots, stats.oracle_calls)


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Murty's family (Murty 1978): M lower triangular with 1 on the diagonal and
# 2 below it, q = -1.  With the all-ones covering vector Lemke's path has
# exactly 2^n - 1 pivots, which every Murty op checks.

def murty(n: int) -> problems.LcpInstance:
    m = [[Fraction(1 if i == j else 2 if j < i else 0) for j in range(n)] for i in range(n)]
    return problems.LcpInstance(M=m, q=[Fraction(-1)] * n)


def murty_pivots(n: int) -> int:
    return (1 << n) - 1


# ---------------------------------------------------------------------------
# lemke-path: Lemke's pivot loop alone (rational + pivoting layers).

# n = 8 (255 pivots) rather than 9 keeps more than ten Murty ops in a run,
# so the tail percentile falls among the Murty ops and the median among the
# d = 16 ones instead of on the boundary between them.
MURTY_LEMKE_N = 8
LEMKE_D = 16
LEMKE_PER_CYCLE = 3
LEMKE_POOL = 48


def _lemke_op(kind: str, inst, murty_n: int | None = None) -> Op:
    def run() -> Outcome:
        stats = solvers.RunStats()
        c = solvers.lemke(inst, stats=stats)
        check(problems.verify(inst, c), f"{c.kind} does not verify on the source")
        if murty_n is not None:
            check(stats.pivots == murty_pivots(murty_n),
                  f"Murty n={murty_n} took {stats.pivots} pivots, not 2^n - 1")
        return _outcome(c, stats)

    return Op(kind, run)


def build_lemke_path(seed: int, cycles: int, workdir: Path) -> Workload:
    seeds = _seeds(random.Random(f"lemke-path/{seed}"), LEMKE_POOL)
    pool = [generators.gen_lcp(LEMKE_D, s) for s in seeds]
    big = murty(MURTY_LEMKE_N)
    ops = []
    for c in range(cycles):
        cycle = [_lemke_op(f"murty{MURTY_LEMKE_N}", big, MURTY_LEMKE_N)]
        for j in range(LEMKE_PER_CYCLE):
            k = (c * LEMKE_PER_CYCLE + j) % LEMKE_POOL
            cycle.append(_lemke_op(f"gen_lcp{LEMKE_D}", pool[k]))
        ops.append(cycle)
    return Workload(ops, {f"gen_lcp(d={LEMKE_D})": seeds})


# ---------------------------------------------------------------------------
# lcp-line: the same pivots reached through the plcp -> eopl line view.

# One Murty size per cycle, for the same reason as MURTY_LEMKE_N.
MURTY_LINE_N = 6
LINE_D = 8
LINE_PER_CYCLE = 8
LINE_POOL = 160


def _line_op(kind: str, inst, murty_n: int | None = None) -> Op:
    # The view is built here, in set-up; each op gets its own view, so its
    # vertex cache starts empty.
    line, view = reductions_lcp.plcp_to_eopl(inst)

    def run() -> Outcome:
        stats = solvers.RunStats()
        c = solvers.follow_line(line, 0, stats=stats)
        src = reductions_lcp.map_back_lcp(inst, view, c)
        check(problems.verify(inst, src), f"{c.kind} -> {src.kind} does not verify on the source")
        if murty_n is not None:
            # The line visits 0^n, then the 2^n - 1 pivots' 2^n vertices.
            check(stats.steps == murty_pivots(murty_n) + 2,
                  f"Murty n={murty_n} line took {stats.steps} steps, not 2^n + 1")
        return _outcome(src, stats)

    return Op(kind, run)


def build_lcp_line(seed: int, cycles: int, workdir: Path) -> Workload:
    seeds = _seeds(random.Random(f"lcp-line/{seed}"), LINE_POOL)
    pool = [generators.gen_lcp(LINE_D, s) for s in seeds]
    big = murty(MURTY_LINE_N)
    ops = []
    for c in range(cycles):
        cycle = [_line_op(f"murty{MURTY_LINE_N}", big, MURTY_LINE_N)]
        for j in range(LINE_PER_CYCLE):
            k = (c * LINE_PER_CYCLE + j) % LINE_POOL
            cycle.append(_line_op(f"gen_lcp{LINE_D}", pool[k]))
        ops.append(cycle)
    return Workload(ops, {f"gen_lcp(d={LINE_D})": seeds})


# ---------------------------------------------------------------------------
# reduction-chain: plcp -> uso -> opdc -> ufeopl -> plus1 -> ueopl ->
# normalized, followed to the end and mapped back through all six stages.

CHAIN_D2_PER_CYCLE = 1
CHAIN_D1_PER_CYCLE = 1


def _chain_op(kind: str, lcp, defect: str | None = None) -> Op:
    uso = reductions_lcp.plcp_to_uso(lcp)
    opdc = reductions_opdc.uso_to_opdc(uso)
    ufeopl, v_opdc = reductions_opdc.opdc_to_ufeopl(opdc)
    plus1, v_plus1 = reductions_line.ufeopl_to_plus1(ufeopl)
    ueopl, v_peb = reductions_line.plus1_to_ueopl(plus1)
    norm, v_norm = reductions_line.normalize_potentials(ueopl)
    stages = [
        ("ueopl", ueopl, v_norm.map_back),
        ("plus1", plus1, v_peb.map_back),
        ("ufeopl", ufeopl, v_plus1.map_back),
        ("opdc", opdc, lambda c: reductions_opdc.map_back_opdc(opdc, v_opdc, c)),
        ("uso", uso, lambda c: reductions_opdc.map_back_uso(uso, c)),
        ("plcp", lcp, lambda c: reductions_lcp.map_back_uso(lcp, uso, c)),
    ]

    def run() -> Outcome:
        stats = solvers.RunStats()
        c = solvers.follow_line(norm, 0, stats=stats)
        for stage, inst, back in stages:
            c = back(c)
            check(problems.verify(inst, c), f"map-back to {stage} gave {c}, which does not verify")
        check(c == solvers.lemke(lcp), f"chain answer {c} differs from Lemke on the source")
        return _outcome(c, stats)

    return Op(kind, run, defect)


def build_reduction_chain(seed: int, cycles: int, workdir: Path) -> Workload:
    rng = random.Random(f"reduction-chain/{seed}")
    seeds2 = _seeds(rng, cycles * CHAIN_D2_PER_CYCLE)
    seeds1 = _seeds(rng, cycles * CHAIN_D1_PER_CYCLE)
    ops = []
    for c in range(cycles):
        cycle = []
        for s in seeds2[c * CHAIN_D2_PER_CYCLE:(c + 1) * CHAIN_D2_PER_CYCLE]:
            cycle.append(_chain_op("chain_d2", generators.gen_lcp(2, s, nondegenerate=True)))
        for s in seeds1[c * CHAIN_D1_PER_CYCLE:(c + 1) * CHAIN_D1_PER_CYCLE]:
            lcp = generators.gen_lcp(1, s, nondegenerate=True)
            cycle.append(_chain_op("chain_d1", lcp, defect="chain-d1-stall"))
        ops.append(cycle)
    return Workload(ops, {"gen_lcp(d=2)": seeds2, "gen_lcp(d=1)": seeds1})


# ---------------------------------------------------------------------------
# cli-mixed: in-process `potline` round trips, `solve -o record` and then
# `verify` of the certificate extracted from the record.

# (slot, ops per cycle, generate args, problem, solve args, defect).  Each
# slot has CLI_VARIANTS instance files; cycle c uses variant c % CLI_VARIANTS.
# The d = 5 findfp file is one fixed instance: its cost varies 5x between
# generator seeds and it carries much of the cycle's time, so a seeded choice
# would make the run-to-run figures depend on the seed more than on the code.
CLI_SLOTS = [
    ("plcp_lemke_d4", 8, ["--kind", "pmatrixlcp", "--d", "4"], "plcp", ["--algo", "lemke"], None),
    ("findfp_d3", 4, ["--kind", "contractioncircuit", "--d", "3"], "contraction", ["--algo", "findfp"], None),
    ("findfp_d5", 1, ["--kind", "contractioncircuit", "--d", "5", "--seed", "5"], "contraction",
     ["--algo", "findfp"], None),
    ("approx_readme", 2, ["--kind", "contractioncircuit", "--d", "2"], "contraction",
     ["--algo", "approx", "--p", "2", "--eps", "1/1024"], "approx-no-eps"),
    ("noncontraction_findfp", 3, ["--kind", "noncontraction", "--d", "3"], "contraction",
     ["--algo", "findfp"], None),
    ("line_follow", 4, ["--kind", "explicitline", "--length", "24"], "line", ["--algo", "follow"], None),
    ("multiline_aldous", 4, ["--kind", "multiline", "--length", "16"], "line",
     ["--algo", "aldous", "--samples", "16"], None),
    ("uso_brute_d3", 3, ["--kind", "uso", "--d", "3"], "uso", ["--algo", "brute"], None),
]
CLI_VARIANTS = 6


def run_cli(argv) -> tuple[int, str, str]:
    """One in-process `potline` command: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def _cli_op(kind: str, workdir: Path, inst_path: Path, problem: str, solve_args, seed: int,
            defect: str | None) -> Op:
    record_path = workdir / "record.json"
    cert_path = workdir / "cert.json"
    solve_args = [*solve_args, "--seed", seed]  # only aldous draws from it

    def run() -> Outcome:
        rc, _, err = run_cli(["solve", inst_path, "--problem", problem, *solve_args, "-o", record_path])
        check(rc == 0, f"solve exited {rc}: {err.strip()}")
        with open(record_path) as fh:
            record = json.load(fh)
        certificate = record["certificate"]
        check(certificate is not None, "solve returned no certificate")
        with open(cert_path, "w") as fh:
            json.dump(certificate, fh)
        # Judge the op by `potline verify` alone, never by the record's
        # `verified` field, which `solve` sets without a check for some kinds.
        rc, out, err = run_cli(["verify", inst_path, cert_path, "--problem", problem])
        report = json.loads(out) if out.strip() else {}
        accepted = rc == 0 and report.get("accepted") is True and report.get("kind") == certificate["kind"]
        check(accepted, f"verify rejected the certificate: {report.get('reason', err.strip())}")
        counters = record["counters"]
        return Outcome(json.dumps(certificate, sort_keys=True), counters["steps"],
                       counters["pivots"], counters["oracleCalls"])

    return Op(kind, run, defect)


def build_cli_mixed(seed: int, cycles: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli-mixed/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, list[tuple[Path, int]]] = {}
    for slot, _, gen_args, _, _, _ in CLI_SLOTS:
        files[slot] = []
        for v in range(CLI_VARIANTS):
            if "--seed" in gen_args:
                s, args = int(gen_args[gen_args.index("--seed") + 1]), gen_args
            else:
                s = rng.randrange(1 << 20)
                args = [*gen_args, "--seed", s]
            path = workdir / f"{slot}-{v}.json"
            rc, _, err = run_cli(["generate", *args, "-o", path])
            if rc != 0:
                raise RuntimeError(f"potline generate {args} failed: {err.strip()}")
            files[slot].append((path, s))
    ops = []
    for c in range(cycles):
        cycle = []
        for slot, per_cycle, _, problem, solve_args, defect in CLI_SLOTS:
            path, s = files[slot][c % CLI_VARIANTS]
            for _ in range(per_cycle):
                cycle.append(_cli_op(slot, workdir, path, problem, solve_args, s, defect))
        # Interleave the slots so that no kind of op runs in one block.
        random.Random(f"cli-mixed/{seed}/{c}").shuffle(cycle)
        ops.append(cycle)
    return Workload(ops, {slot: [s for _, s in fs] for slot, fs in files.items()})


# name -> (build function, nominal seconds of one untraced cycle on a 2-vCPU Xeon
# with Python 3.11).  The nominal cost only sizes the set-up and the traced
# batch; it never decides when a timed run stops.
WORKLOADS = {
    "lemke-path": (build_lemke_path, 1.05),
    "lcp-line": (build_lcp_line, 0.9),
    "reduction-chain": (build_reduction_chain, 2.2),
    "cli-mixed": (build_cli_mixed, 0.45),
}
