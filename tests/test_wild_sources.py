"""Adversarial map-back sweeps: completely unstructured sources reduced
through `cli.compose`, every certificate of the image mapped back and
verified."""

import random
from fractions import Fraction as F
from itertools import product

from potline.cli import compose
from potline.problems import LcpInstance, OpdcInstance, UsoInstance, line_from_tables, verify
from potline.reductions_lcp import PlcpLineView, _stall_pair
from potline.solvers import brute_force

# Each sweep yields (label, source, brute-force image certificates, map-back).


def _wild_lcps():
    rng = random.Random(0)
    for trial in range(60):
        rng.seed(trial)
        d = 2 + trial % 2
        m = [[F(rng.randrange(-3, 4)) for _ in range(d)] for _ in range(d)]
        q = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(d)]
        if all(v >= 0 for v in q):
            continue
        yield trial, LcpInstance(M=m, q=q)


def wild_lcp_matrices():
    for trial, inst in _wild_lcps():
        line, map_back = compose(inst, ("plcp", "ueopl"))
        yield trial, inst, brute_force(line), map_back


def wild_orientations():
    rng = random.Random(1)
    for trial in range(60):
        rng.seed(trial)
        n = 2 + trial % 2
        table = {
            v: (None if rng.random() < 0.1 else rng.randrange(1 << n))
            for v in range(1 << n)
        }
        uso = UsoInstance(n=n, orient=table.get)
        opdc, map_back = compose(uso, ("uso", "opdc"))
        yield trial, uso, brute_force(opdc, max_certs=300), map_back


def wild_opdc_grids():
    rng = random.Random(2)
    for trial in range(60):
        rng.seed(trial)
        d = 1 + trial % 2
        widths = tuple(rng.choice([1, 2, 3]) for _ in range(d))
        table = {}
        for p in product(*[range(k + 1) for k in widths]):
            table[p] = [rng.choice(["up", "down", "zero"]) for _ in range(d)]
        inst = OpdcInstance(widths=widths, direction=lambda p, t=table: tuple(t[p]))
        line, map_back = compose(inst, ("opdc", "ufeopl"))
        yield (trial, widths), inst, brute_force(line, max_certs=300), map_back


def wild_forward_lines():
    rng = random.Random(3)
    for trial in range(60):
        rng.seed(trial)
        n = 3
        size = 1 << n
        s = {0: rng.randrange(1, size)}
        v = {0: 0}
        for x in range(1, size):
            if rng.random() < 0.7:
                s[x] = rng.randrange(size)
            v[x] = rng.randrange(8)
        src = line_from_tables(n, s, None, v, flavor="ufeopl")
        plus1, map_back = compose(src, ("ufeopl", "plus1"))
        yield trial, src, brute_force(plus1, max_certs=300), map_back


def wild_plus1_lines():
    rng = random.Random(4)
    for trial in range(40):
        rng.seed(trial)
        n = 3
        size = 1 << n
        s = {0: rng.randrange(1, size)}
        v = {0: 0}
        for x in range(1, size):
            if rng.random() < 0.7:
                s[x] = rng.randrange(size)
            v[x] = rng.randrange(6)
        src = line_from_tables(n, s, None, v, flavor="ufeoplplus1", m_pot=3)
        ueopl, map_back = compose(src, ("plus1", "ueopl"))
        yield trial, src, brute_force(ueopl, max_certs=300), map_back


WILD_SWEEPS = {
    "lcp": wild_lcp_matrices,
    "orientations": wild_orientations,
    "opdc": wild_opdc_grids,
    "forward": wild_forward_lines,
    "plus1": wild_plus1_lines,
}


def _check(sweep):
    for label, src, certs, map_back in sweep():
        for c in certs:
            assert verify(src, map_back(c)), (label, c)


def test_wild_lcp_matrices():
    _check(wild_lcp_matrices)


def test_wild_orientations():
    _check(wild_orientations)


def test_wild_opdc_grids():
    _check(wild_opdc_grids)


def test_wild_forward_lines():
    _check(wild_forward_lines)


def test_wild_plus1_lines():
    _check(wild_plus1_lines)


def test_wild_lcp_stall_pairs_share_one_z():
    # At a stalled vertex of the Lemke line, the U1 and UV2 map-back pairs
    # one point on each relaxation edge, and `_stall_pair` returns their y's
    # alone: both points have one z by construction.  Every point the
    # system builds is recorded with its z, keyed by its y list.
    pairs = 0
    for trial, inst in _wild_lcps():
        view = PlcpLineView(inst)
        sys, points = view.sys, {}
        for name in ("numeric_point", "edge_point"):
            def record(*args, build=getattr(sys, name)):
                y, w, z = build(*args)
                points[id(y)] = y, z  # edge_point's own record comes last
                return y, w, z
            setattr(sys, name, record)
        for c in brute_force(view.image()):
            v = view.vertex_of(c.x) if c.kind in ("U1", "UV2") else None
            if v is None or sys.zvar not in v.basis:
                continue
            pair = _stall_pair(view, v)
            if pair is not None:
                (y1, z1), (y2, z2) = (points[id(y)] for y in pair)
                assert y1 is pair[0] and y2 is pair[1] and z1 == z2, (trial, c)
                pairs += 1
    assert pairs
