"""Line walks pinned to recorded outcomes: a digest over every
`follow_line` and `aldous` run on a family of line instances, of the
certificate's repr with the run's steps and oracle calls, or of the
exception that ended the run.  A refactor of the walk must return the same
certificates, count the same steps and raise the same messages."""

import hashlib
import random

from potline.generators import gen_lcp, gen_line
from potline.problems import LINE_KINDS, VariantMismatch, line_from_tables
from potline.reductions_lcp import PlcpLineView
from potline.solvers import Exhausted, RunStats, aldous, follow_line

SAMPLES = (0, 1, 3, 8, 32)
SEEDS = (0, 1, 2)
TWO_WAY = ("eopl", "ueopl", "eoml", "endofline")


def _outcome(run) -> str:
    stats = RunStats()
    try:
        c = run(stats)
    except (Exhausted, VariantMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{c!r} steps={stats.steps} calls={stats.oracle_calls}"


def _outcomes(inst):
    for start in range(inst.size):
        yield _outcome(lambda st: follow_line(inst, start, stats=st))
        yield _outcome(lambda st: follow_line(inst, start, max_steps=3, stats=st))
    for samples in SAMPLES:
        for seed in SEEDS:
            for cap in (None, 3):
                yield _outcome(lambda st: aldous(inst, samples, random.Random(seed), cap, st))


def _random_tables(flavor: str, seed: int):
    """A 3-bit instance with random tables.  P mostly inverts S, so walks
    run for a few steps before an end, a potential violation or a cycle."""
    rng = random.Random(f"{flavor}/{seed}")
    s = {x: rng.randrange(8) for x in range(8)}
    p = {}
    for x in range(8):
        pre = [w for w in range(8) if s[w] == x]
        p[x] = rng.choice(pre) if pre and rng.random() < 0.8 else rng.randrange(8)
    v = {x: rng.randrange(5) for x in range(8)}
    return line_from_tables(3, s, p if flavor in TWO_WAY else None, v, flavor=flavor)


def _families():
    for flavor in LINE_KINDS:
        yield f"gen_line/{flavor}", [
            gen_line(length, seed, flavor=flavor, two_lines=two)
            for length, seed in ((5, 0), (9, 1), (12, 2)) for two in (False, True)
        ]
        yield f"tables/{flavor}", [_random_tables(flavor, seed) for seed in range(12)]
    yield "plcp", [PlcpLineView(gen_lcp(d, seed, p_matrix=seed % 3 != 2)).image()
                   for d in (2, 3) for seed in range(6)]


def _digest(insts) -> str:
    h = hashlib.sha256()
    for inst in insts:
        for out in _outcomes(inst):
            h.update(out.encode() + b"\n")
    return h.hexdigest()[:16]


# Recorded before follow_line and aldous shared one walk.
PINNED = {
    'gen_line/endofline': 'b8ed0c99dc2c9a58',
    'tables/endofline': '7b4237e76828b4d1',
    'gen_line/sinkofdag': 'a5f6163e40e4711a',
    'tables/sinkofdag': 'baa644314487c7e5',
    'gen_line/eopl': 'a1d7abde0cd62f69',
    'tables/eopl': '0bbdf006f91c0df6',
    'gen_line/ueopl': '36222ee764a1ab0f',
    'tables/ueopl': 'c0834aa95e63b8c2',
    'gen_line/eoml': '42f2f38a7c915e07',
    'tables/eoml': '4d5e824ac985a5a4',
    'gen_line/ufeopl': '54cdfc5de0b4fd93',
    'tables/ufeopl': '09c561beb1f40ce6',
    'gen_line/ufeoplplus1': '4b3cf53a65682fdd',
    'tables/ufeoplplus1': '40d79b27784c261d',
    'plcp': '7d8f507557b53c46',
}


def test_walks_pinned():
    assert {name: _digest(insts) for name, insts in _families()} == PINNED
