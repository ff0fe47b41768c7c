"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

from potline.circuits import evaluate
from potline.cli import compose
from potline.generators import (
    gen_contraction,
    gen_lcp,
    gen_line,
    gen_uso,
)
from potline.problems import LcpInstance, cert, verify
from potline.rational import lp_pow
from potline.reductions_lcp import PlcpLineView, PlcpToUso, out_map
from potline.reductions_line import PebblingView, TrivialInstance
from potline.reductions_opdc import UsoToOpdc
from potline.solvers import (
    RunStats,
    aldous,
    approx_find_fp,
    brute_force,
    find_fp,
    follow_line,
    lemke,
)

from helpers import check_schedule, gen_normalized_line, lemke_zs


def report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS - {text}")


def test_criterion_01_lemke_correctness():
    t0 = time.monotonic()
    runs = 0
    for d in (2, 3, 4, 5, 6):
        for seed in range(40):
            inst = gen_lcp(d, seed)
            c, zs = lemke_zs(inst)
            assert c.kind == "Q1", (d, seed)
            assert verify(inst, c)
            assert all(a > b for a, b in zip(zs, zs[1:])), (d, seed)
            runs += 1
    elapsed = time.monotonic() - t0
    assert runs == 200 and elapsed < 60
    report(1, f"200 SPD LCPs (d=2..6): Q1 verified, z strictly decreasing, {elapsed:.1f}s")


def test_criterion_02_brute_force_equivalence():
    checked = 0
    for d in (2, 3, 4):
        for seed in range(10):
            inst = gen_lcp(d, seed)
            c = lemke(inst)
            q1s = [b for b in brute_force(inst) if b.kind == "Q1"]
            assert len(q1s) == 1
            assert q1s[0].y == c.y
            checked += 1
    report(2, f"{checked} P-matrix instances: Lemke equals the unique support-enumeration solution")


def _szabo_welzl_pairs(uso, n):
    bad = []
    for v, u in combinations(range(1 << n), 2):
        ov, ou = uso.orient(v), uso.orient(u)
        if ov is None or ou is None or (v ^ u) & (ov ^ ou) == 0:
            bad.append((v, u))
    return bad


def test_criterion_03_plcp_to_uso_soundness():
    good = 0
    for d in (2, 3, 4):
        for seed in range(6):
            inst = gen_lcp(d, seed, nondegenerate=True)
            uso = PlcpToUso(inst).image()
            assert not _szabo_welzl_pairs(uso, d)
            sinks = [v for v in range(1 << d) if uso.orient(v) == 0]
            assert len(sinks) == 1
            assert PlcpToUso(inst).map_back(cert("US1", v=sinks[0])) == lemke(inst)
            good += 1
    planted = 0
    seed = 0
    while planted < 20:
        inst = gen_lcp(2 + seed % 2, seed, p_matrix=False)
        seed += 1
        uso = PlcpToUso(inst).image()
        usv2 = [c for c in brute_force(uso) if c.kind == "USV2"]
        if not usv2:
            continue
        pv3 = PlcpToUso(inst).map_back(usv2[0])
        assert pv3.kind == "PV3" and verify(inst, pv3)
        planted += 1
    report(3, f"{good} P-matrices pass all-pairs Szabo-Welzl with one sink -> Lemke solution; "
              f"{planted} planted non-P instances: USV2 -> verifying PV3")


def test_criterion_04_plcp_to_eopl_line_integrity():
    checked = 0
    for d in (2, 3):
        for seed in range(6):
            inst = gen_lcp(d, seed, nondegenerate=True)
            view = PlcpLineView(inst)
            line = view.image()
            assert line.V(0) == 0
            certs = brute_force(line)
            kinds = sorted(c.kind for c in certs)
            assert kinds == ["U1"], (d, seed, certs)
            x, vs = 0, [line.V(0)]
            while True:
                nxt = line.S(x)
                if nxt == x or line.P(nxt) != x:
                    break
                vs.append(line.V(nxt))
                x = nxt
            assert all(a < b for a, b in zip(vs, vs[1:]))
            assert cert("U1", x=x) == certs[0]
            checked += 1
    report(4, f"{checked} instances (d=2,3): exactly one U1 over all 2^(2d) codes, "
              "no UV2/UV3, strictly increasing V from V(0^n)=0")


def test_criterion_05_find_fp_exactness():
    exact = 0
    for seed in range(50):
        d = 1 + seed % 3
        inst = gen_contraction(d, seed)
        c = find_fp(inst)
        assert c.kind == "CM1", (seed, c)
        assert c.x == inst.fixpoint
        assert inst.f(c.x) == list(c.x)
        exact += 1
    planted = 0
    for seed in range(20):
        d = 1 + seed % 2
        inst = gen_contraction(d, seed, contracting=False)
        c = find_fp(inst)
        assert c.kind == "CMV3", (seed, c)
        assert verify(inst, c)
        planted += 1
    report(5, f"{exact} contracting circuits: CM1 equals the analytic fixpoint exactly; "
              f"{planted} planted non-contractions: verifying CMV3")


def test_criterion_06_approx_find_fp_residual():
    eps = F(1, 1024)
    solved = 0
    for seed in range(50):
        d = 1 + seed % 2
        p = (1, 2, 3)[seed % 3]
        base = gen_contraction(d, seed, p=p)
        # black-box wrapper: the solver sees only the evaluator
        from potline.problems import ContractionInstance

        inst = ContractionInstance(d=d, c=base.c, p=p, func=base.f, eps=eps)
        c = approx_find_fp(inst)
        assert c.kind == "APPROX_FIX", (seed, c)
        resid = lp_pow([a - b for a, b in zip(inst.f(c.v), c.v)], p)
        assert resid <= eps**p
        solved += 1
    for p in (1, 2, 3):
        for d in (1, 2, 3, 4):
            assert check_schedule(p, d, eps)
    report(6, f"{solved} black-box contractions (d<=2, p in 1..3): ||f(v)-v||_p <= 2^-10 exactly; "
              "eps-schedule inequality exact for all (p,d,k)")


def _mixed_lcps(count, d=2):
    out = []
    for seed in range(count):
        if seed % 3 == 2:
            out.append(gen_lcp(d, seed, p_matrix=False))
        else:
            out.append(gen_lcp(d, seed, nondegenerate=True))
    return out


def map_back_families():
    """(name, [(source, brute-force image certificates, map-back)]) for
    every reduction, on mixed good and violated sources."""

    def family(step, sources, **brute):
        pairs = []
        for src in sources:
            image, map_back = compose(src, step)
            pairs.append((src, brute_force(image, **brute), map_back))
        return pairs

    yield "plcp->uso", family(("plcp", "uso"), _mixed_lcps(100))
    yield "plcp->eopl", family(("plcp", "ueopl"), _mixed_lcps(100))
    yield "uso->opdc", family(("uso", "opdc"),
                              (gen_uso(2, seed, broken=seed % 2 == 1) for seed in range(100)))
    # contraction sources on a synthetic small kappa
    yield "contraction->opdc", family(("contraction", "opdc"), (
        gen_contraction(1 + seed % 2, seed, contracting=seed % 3 != 2, kappa=(4,) * (1 + seed % 2))
        for seed in range(100)))

    # OPDC -> UFEOPL (good and violated synthetic grids)
    grids = []
    rng = random.Random(0)
    for seed in range(100):
        if seed % 2 == 0:
            grids.append(UsoToOpdc(gen_uso(2, seed)).image())
        else:
            rng.seed(seed)
            table = {}
            k = 2
            for x in range(k + 1):
                for y in range(k + 1):
                    table[(x, y)] = [rng.choice(["up", "down", "zero"]),
                                     rng.choice(["up", "down", "zero"])]
            from potline.problems import OpdcInstance

            grids.append(OpdcInstance(widths=(k, k), direction=lambda p, t=table: tuple(t[p])))
    yield "opdc->ufeopl", family(("opdc", "ufeopl"), grids, max_certs=500)

    yield "ufeopl->plus1", family(("ufeopl", "plus1"), (
        gen_line(5, seed=seed, flavor="ufeopl", two_lines=seed % 2 == 1) for seed in range(100)))
    yield "plus1->ueopl", family(("plus1", "ueopl"), (
        gen_line(4, seed=seed, flavor="ufeoplplus1", gaps=[1, 1, 1], two_lines=seed % 2 == 1)
        for seed in range(100)), max_certs=400)
    yield "normalize", family(("ueopl", "normalized"), (
        gen_line(5, seed=seed, flavor="ueopl", two_lines=seed % 2 == 1) for seed in range(100)),
        budget=1 << 18, max_certs=400)

    # EOPL -> EOML, and EOML -> EOPL on its images
    pairs_a, pairs_b = [], []
    for seed in range(100):
        src = gen_line(6, seed=seed, flavor="eopl", two_lines=seed % 3 == 2)
        try:
            eoml, map_back = compose(src, ("eopl", "eoml"))
        except TrivialInstance as t:
            assert verify(src, t.certificate)
            continue
        pairs_a.append((src, brute_force(eoml, max_certs=400), map_back))
        pairs_b += family(("eoml", "eopl"), [eoml], max_certs=400)
    yield "eopl->eoml", pairs_a
    yield "eoml->eopl", pairs_b

    # UniqueEOPL -> OPDC (normalized sources)
    yield "ueopl->opdc", family(("normalized", "opdc"), (
        gen_normalized_line(2, seed=seed, two_lines=seed % 2 == 1) for seed in range(100)),
        budget=1 << 18, max_certs=300)


def test_criterion_07_map_back_soundness():
    totals = {}
    for name, pairs in map_back_families():
        mapped = 0
        for src, image_certs, map_back in pairs:
            for c in image_certs:
                mb = map_back(c)
                assert verify(src, mb), (name, c, mb)
                mapped += 1
        totals[name] = mapped

    summary = ", ".join(f"{k}:{v}" for k, v in totals.items())
    assert all(v > 0 for v in totals.values())
    report(7, f"map-backs all verified, zero UnmappableCert ({summary})")


def test_criterion_08_pebbling_line():
    # exhaustive uniqueness at small k
    for k in (2, 3):
        src = gen_line(1 << k, seed=k, flavor="ufeoplplus1", gaps=[1] * ((1 << k) - 1))
        view = PebblingView(src)
        line = view.image()
        certs = brute_force(line)
        u1s = [c for c in certs if c.kind == "U1"]
        assert len(u1s) == 1
        ends = [b for b in brute_force(src) if b.kind == "UFP1"]
        assert view.map_back(u1s[0]) in ends

    t0 = time.monotonic()
    src = gen_line(1 << 10, seed=1, flavor="ufeoplplus1", gaps=[1] * 1023)
    view = PebblingView(src)
    line = view.image()
    x, steps = 0, 0
    while True:
        nxt = line.S(x)
        if nxt == x:
            break
        assert line.P(nxt) == x
        assert line.V(nxt) == line.V(x) + 1
        x, steps = nxt, steps + 1
    c = cert("U1", x=x)
    assert verify(line, c)
    mb = view.map_back(c)
    ends = [b for b in brute_force(src) if b.kind == "UFP1"]
    assert mb in ends and len(ends) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10, elapsed
    report(8, f"pebbling walk (k=10): P'(S'(x)) = x and V' +1 along {steps} steps, "
              f"U1 -> the source end, {elapsed:.1f}s")


def test_criterion_09_hardness_round_trip():
    for exp in (1, 2, 3):
        src = gen_normalized_line(exp, seed=exp)
        opdc, map_back = compose(src, ("normalized", "opdc"))
        certs = brute_force(opdc, budget=1 << 18)
        o1s = [c for c in certs if c.kind == "O1"]
        assert len(o1s) == 1
        assert not any(c.kind == "OV3" for c in certs)
        mb = map_back(o1s[0])
        assert mb.kind == "U1" and verify(src, mb)
        assert src.V(mb.x) == (1 << exp) - 1  # decodes to the end of the line
    pair_checked = 0
    for seed in range(6):
        src = gen_normalized_line(2, seed=seed, two_lines=True)
        opdc, map_back = compose(src, ("normalized", "opdc"))
        certs = brute_force(opdc, budget=1 << 20, max_certs=3000)
        assert not any(c.kind == "OV3" for c in certs)
        for c in certs:
            if c.kind in ("OV1", "OV2"):
                mb = map_back(c)
                assert mb.kind == "UV3" and verify(src, mb)
                pair_checked += 1
    assert pair_checked > 0
    report(9, "single lines (2^1..2^3): unique O1 decodes to the line end, no OV3; "
              f"two-line sources: {pair_checked} OV1/OV2 -> verifying UV3")


def test_criterion_10_eoml_eopl_equivalence():
    solved = 0
    seed = 0
    while solved < 100:
        src = gen_line(5 + seed % 4, seed=seed, flavor="eopl")
        seed += 1
        try:
            eopl2, map_back = compose(src, ("eopl", "eoml", "eopl"))
        except TrivialInstance as t:
            assert verify(src, t.certificate)
            continue
        c = follow_line(eopl2, 0)
        back = map_back(c)
        assert verify(src, back)
        solved += 1
    report(10, f"{solved} seeded tables: EOPL -> EOML -> EOPL, follow_line answers map back")


def test_criterion_11_aldous_agreement():
    length = 1 << 12
    inst = gen_line(length, seed=2, flavor="ueopl")
    base = follow_line(inst, 0)
    assert base.kind == "U1"
    for seed in range(10):
        st = RunStats()
        c = aldous(inst, samples=64, rng=random.Random(seed), stats=st)
        assert c == base
        assert st.steps <= length
    report(11, f"aldous matches follow_line's U1 on a 2^12 line for 10 seeds, steps <= {length}")
