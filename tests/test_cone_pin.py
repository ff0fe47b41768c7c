"""Cone solves pinned to recorded answers: SHA-256 digests of `out_map` over
every cone of seeded LCPs, of `PlcpToUso.map_back`'s answer to every US1, of
`brute_force`'s certificates, and of the instances the generators
return, so a change of the exact engine
behind them must give exactly the same sign bits, points and instances."""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations

from potline.generators import gen_lcp, gen_uso
from potline.problems import LcpInstance, UnmappableCert, cert, lcp_to_json, uso_to_json
from potline.reductions_lcp import PlcpToUso, out_map
from potline.solvers import brute_force

DIMS = range(1, 7)
SEEDS = range(8)


def _cones(d):
    return [frozenset(s) for r in range(d + 1) for s in combinations(range(d), r)]


def _wild(d, seed):
    """Small integer M and q drawn so that singular cones and zero entries
    of A_alpha^-1 q (degenerate right-hand sides) are common."""
    rng = random.Random(seed)
    m = [[F(rng.randrange(-1, 2)) for _ in range(d)] for _ in range(d)]
    q = [F(rng.randrange(-1, 2)) for _ in range(d)]
    return LcpInstance(M=m, q=q)


FAMILIES = {
    "p": lambda d, s: gen_lcp(d, s),
    "nonp": lambda d, s: gen_lcp(d, s, p_matrix=False),
    "nondegenerate": lambda d, s: gen_lcp(d, s, nondegenerate=True),
    "wild": _wild,
}


def _instances(name):
    return [FAMILIES[name](d, s) for d in DIMS for s in SEEDS]


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _out_maps(insts):
    for inst in insts:
        for alpha in _cones(inst.d):
            yield repr(out_map(inst, alpha))


def _us1_answers(insts):
    for inst in insts:
        uso = PlcpToUso(inst).image()
        for v in range(1 << inst.d):
            if uso.orient(v) != 0:
                continue
            try:
                yield f"{v} {PlcpToUso(inst).map_back(cert('US1', v=v))!r}"
            except UnmappableCert:
                yield f"{v} UnmappableCert"


# Recorded with the Bareiss solver, before out-maps read the Lemke tableau.
PINNED = {
    'out_map/p': '42d6683f4f39b8a7',
    'US1/p': '28bff60b75ca3fbd',
    'brute/p': '2a3d7e2db36d172d',
    'out_map/nonp': 'f3ba91ce4008a5bc',
    'US1/nonp': '895e0e6315014d68',
    'brute/nonp': 'b965f7db619e509f',
    'out_map/nondegenerate': '72a0b1dbb16dcc4b',
    'US1/nondegenerate': '4b2d3e2cd517d962',
    'brute/nondegenerate': '85850baa2efd87e4',
    'out_map/wild': '1b8d00c601d8f1ed',
    'US1/wild': '3d6461b3e80a2da1',
    'brute/wild': '0382bda9c9b94a00',
    'gen_lcp/nonp': '9c1ac8625364925c',
    'gen_lcp/nondegenerate': '15f61907ac7b2fa2',
    'gen_uso': '01e625fd420785af',
}


def _digests():
    got = {}
    for name in FAMILIES:
        insts = _instances(name)
        got[f"out_map/{name}"] = _digest(_out_maps(insts))
        got[f"US1/{name}"] = _digest(_us1_answers(insts))
        got[f"brute/{name}"] = _digest(repr(brute_force(i)) for i in insts)
    for name in ("nonp", "nondegenerate"):
        got[f"gen_lcp/{name}"] = _digest(json.dumps(lcp_to_json(i)) for i in _instances(name))
    got["gen_uso"] = _digest(
        json.dumps(uso_to_json(gen_uso(n, s, broken=b)))
        for n in DIMS for s in SEEDS for b in (False, True)
    )
    return got


def test_cone_solves_pinned():
    assert _digests() == PINNED
