import random
from fractions import Fraction as F

import pytest

from potline.circuits import affine_circuit
from potline.generators import gen_contraction, gen_lcp, gen_line
from potline.problems import (
    ContractionInstance,
    LcpInstance,
    OpdcInstance,
    UsoInstance,
    cert,
    line_from_tables,
    verify,
)
from potline.solvers import (
    Exhausted,
    RunStats,
    aldous,
    approx_find_fp,
    brute_force,
    eps_schedule,
    find_fp,
    follow_line,
    lemke,
)

from helpers import check_schedule


# -- Lemke -------------------------------------------------------------------

def test_lemke_trivial_q():
    assert lemke(LcpInstance(M=[[1, 0], [0, 1]], q=[1, 1])) == cert("Q1", y=[F(0), F(0)])


def test_lemke_worked_example():
    c = lemke(LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1]))
    assert c == cert("Q1", y=[F(1, 3), F(1, 3)])


def test_lemke_identity():
    c = lemke(LcpInstance(M=[[1, 0], [0, 1]], q=[-1, -2]))
    assert c == cert("Q1", y=[F(1), F(2)])


def test_lemke_matches_brute_force():
    for seed in range(12):
        inst = gen_lcp(3, seed)
        c = lemke(inst)
        assert c.kind == "Q1" and verify(inst, c)
        q1s = [b for b in brute_force(inst) if b.kind == "Q1"]
        assert len(q1s) == 1 and q1s[0].y == c.y


def test_lemke_z_monotone_on_p_matrices():
    for seed in range(8):
        inst = gen_lcp(4, seed, nondegenerate=True)
        st = RunStats()
        c = lemke(inst, stats=st)
        assert c.kind == "Q1"
        assert all(a > b for a, b in zip(st.z_trace, st.z_trace[1:])), st.z_trace


def test_lemke_non_p_violation():
    inst = LcpInstance(M=[[-1, 0], [0, -1]], q=[-1, -2])
    c = lemke(inst)
    assert c.kind == "PV1" and verify(inst, c)


def test_lemke_ray_pv2(monkeypatch):
    # No known instance ends on a ray whose cone has a positive principal
    # minor; faking that minor makes this one do so.  The ray raises y_1, z
    # and w_0 together, so x = dy = (0, 1) is a PV2 witness.
    from potline import solvers

    inst = LcpInstance(M=[[-1, 0], [0, -1]], q=[-1, -2])
    monkeypatch.setattr(solvers, "principal_minor", lambda m, alpha: F(1))
    c = lemke(inst)
    assert c == cert("PV2", x=[F(0), F(1)]) and verify(inst, c)


# -- line following ------------------------------------------------------------

def test_follow_line_finds_end():
    inst = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 1, 2: 2}, flavor="ueopl")
    assert follow_line(inst, 0) == cert("U1", x=2)


def test_follow_line_r2():
    inst = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 2, 2: 1}, flavor="eopl")
    assert follow_line(inst, 0) == cert("R2", x=1)


def test_follow_line_exhausted():
    inst = gen_line(32, seed=0, flavor="eopl", gaps=[1] * 31)
    with pytest.raises(Exhausted):
        follow_line(inst, 0, max_steps=5)


# -- Aldous ---------------------------------------------------------------------

def test_aldous_degenerate_sampling():
    inst = gen_line(8, seed=1, flavor="ueopl", gaps=[1] * 7)
    base = follow_line(inst, 0)
    assert aldous(inst, samples=0, rng=random.Random(1)) == base


def test_aldous_matches_follow_line():
    inst = gen_line(64, seed=2, flavor="ueopl")
    base = follow_line(inst, 0)
    for seed in range(6):
        st = RunStats()
        assert aldous(inst, samples=32, rng=random.Random(seed), stats=st) == base
        assert st.steps <= 64


def test_aldous_two_lines_verifies():
    inst = gen_line(8, seed=3, flavor="ueopl", two_lines=True)
    c = aldous(inst, samples=16, rng=random.Random(0))
    assert verify(inst, c)


def test_aldous_exposes_uv3():
    # two lines whose tops tie in potential: dense sampling watches both,
    # and the walk reports the second line instead of an end
    a1, a2, a3, b1, b2 = 1, 2, 3, 4, 5
    inst = line_from_tables(
        3,
        {0: a1, a1: a2, a2: a3, a3: 0, b1: b2, b2: 0},
        {a1: 0, a2: a1, a3: a2, b2: b1},
        {a1: 1, a2: 5, a3: 9, b1: 5, b2: 9},
        flavor="ueopl",
    )
    c = aldous(inst, samples=64, rng=random.Random(0))
    assert c.kind == "UV3" and verify(inst, c)


# -- exact fixpoint ----------------------------------------------------------------

def test_find_fp_worked_examples():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(6,))
    assert find_fp(inst) == cert("CM1", x=[F(1, 2)])

    circ2 = affine_circuit([[F(0), F(1, 2)], [F(1, 2), F(0)]], [F(1, 4), F(1, 4)])
    inst2 = ContractionInstance(d=2, c=F(1, 2), p=2, circuit=circ2, kappa=(6, 6))
    assert find_fp(inst2) == cert("CM1", x=[F(1, 2), F(1, 2)])


def test_find_fp_nondyadic():
    circ = affine_circuit([[F(1, 4)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(8,))
    assert find_fp(inst) == cert("CM1", x=[F(1, 3)])


def test_find_fp_cmv3():
    inst = gen_contraction(1, seed=0, contracting=False, kappa=(4,))
    c = find_fp(inst)
    assert c.kind == "CMV3" and verify(inst, c)


def test_find_fp_cmv3_2d():
    inst = gen_contraction(2, seed=1, contracting=False, kappa=(4, 4))
    c = find_fp(inst)
    assert c.kind == "CMV3" and verify(inst, c)


def test_find_fp_cmv2_when_f_leaves_the_box():
    # f(x) = x/2 + 3/4 maps 1 to 5/4.
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=affine_circuit([[F(1, 2)]], [F(3, 4)]), kappa=(8,))
    c = find_fp(inst)
    assert c == cert("CMV2", x=[F(1)]) and verify(inst, c)


def test_find_fp_agrees_with_lcp_view():
    from potline.circuits import circuit_to_lcp, evaluate
    from potline.solvers import lcp_brute_force

    inst = gen_contraction(1, seed=4, kappa=(8,))
    c = find_fp(inst)
    assert c.kind == "CM1"
    m, q = circuit_to_lcp(inst.circuit)
    li = LcpInstance(M=m, q=q)
    fixpoints = {tuple(b.y[: inst.d]) for b in lcp_brute_force(li) if b.kind == "Q1"}
    assert tuple(c.x) in fixpoints


# -- approximate fixpoint ----------------------------------------------------------

def test_approx_halving_map():
    circ = affine_circuit([[F(1, 2), F(0)], [F(0), F(1, 2)]], [F(0), F(0)])
    inst = ContractionInstance(d=2, c=F(1, 2), p=2, circuit=circ, eps=F(1, 1024))
    c = approx_find_fp(inst)
    assert c.kind == "APPROX_FIX" and verify(inst, c)


def test_approx_1d_near_half():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=1, circuit=circ, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert c.kind == "APPROX_FIX" and verify(inst, c)
    assert abs(c.v[0] - F(1, 2)) <= F(1, 128)


def test_approx_boundary_fixpoint():
    # f(x) = min(1, x + 1/4): exact fixpoint at 1
    from potline.circuits import Circuit, Gate

    gates = (
        Gate("input", (0,)),
        Gate("const", (F(1, 4),)),
        Gate("add", (0, 1)),
        Gate("const", (F(1),)),
        Gate("min", (2, 3)),
    )
    circ = Circuit(1, gates, (4,))
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert verify(inst, c)


def test_approx_fix_carries_its_tolerance():
    # f(x) = x/2 + 1/3 has the non-dyadic fixpoint 2/3.
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, func=lambda x: [x[0] / 2 + F(1, 3)])
    c = approx_find_fp(inst, eps=F(1, 4))
    assert c.kind == "APPROX_FIX" and (c.eps, c.p) == (F(1, 4), 2)
    assert verify(inst, c)  # the instance sets no eps: the certificate's holds
    inst.eps = F(1, 4096)  # |f(v) - v| = 1/1536: an eps set on the instance is kept
    assert not verify(inst, c)


def test_approx_violation_pair():
    def jump(x):
        return [F(1) if x[0] < F(1, 2) else F(0)]

    inst = ContractionInstance(d=1, c=F(1, 2), p=2, func=jump, eps=F(1, 256))
    c = approx_find_fp(inst)
    assert c.kind == "CMV1" and verify(inst, c)


@pytest.mark.parametrize("b", [[F(3, 4)], [F(1, 4), F(3, 4)]])
def test_approx_cmv2_when_f_leaves_the_box(b):
    # f(x) = x/2 + b leaves the box where the last coordinate is 1; the
    # answer is such a point, not a CMV1 pair that its verifier rejects.
    inst = ContractionInstance(d=len(b), c=F(1, 2), p=2, func=lambda x: [xi / 2 + bi for xi, bi in zip(x, b)])
    c = approx_find_fp(inst, eps=F(1, 256))
    assert c.kind == "CMV2" and c.x[-1] == 1 and verify(inst, c)


def test_schedules_exact():
    for p in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for eps in (F(1, 1024), F(1, 3), F(1, 2)):
                assert check_schedule(p, d, eps)


def test_schedule_values():
    es = eps_schedule(1, 2, F(1, 4))
    assert es == [F(1, 4) / 16, F(1, 4) / 4]


# -- brute force -------------------------------------------------------------------

def test_brute_force_lcp():
    inst = LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1])
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["Q1"]


def test_brute_force_uso():
    inst = UsoInstance(n=1, orient=lambda v: {0: 1, 1: 0}[v])
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["US1"]


def test_brute_force_opdc():
    d2 = {(0,): "up", (1,): "down"}
    inst = OpdcInstance(widths=(1,), direction=lambda i, p: d2[p])
    certs = brute_force(inst)
    assert [c.kind for c in certs] == ["OV2"]


def test_brute_force_line_totality():
    for seed in range(6):
        inst = gen_line(10, seed=seed, flavor="eopl")
        certs = brute_force(inst)
        assert any(c.kind in ("R1", "R2") for c in certs)
