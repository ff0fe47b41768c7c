from fractions import Fraction as F

import pytest

from potline.circuits import affine_circuit, compute_kappa
from potline.generators import gen_contraction, gen_lcp
from potline.problems import (
    ContractionInstance,
    OpdcInstance,
    UnmappableCert,
    UsoInstance,
    cert,
    verify,
)
from potline.reductions_lcp import PlcpToUso
from potline.reductions_opdc import ContractionToOpdc, OpdcLineView, UsoToOpdc, _column_search
from potline.solvers import brute_force, default_budget, follow_line


def opdc_from_table(widths, table):
    return OpdcInstance(widths=widths, direction=lambda p: tuple(table[p]))


# -- USO -> OPDC ---------------------------------------------------------------

def test_uso_to_opdc_worked_cube():
    from potline.problems import LcpInstance

    uso = PlcpToUso(LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1])).image()
    opdc = UsoToOpdc(uso).image()
    assert [opdc.D(i, (0, 0)) for i in (0, 1)] == ["up", "up"]
    assert [opdc.D(i, (1, 1)) for i in (0, 1)] == ["zero", "zero"]
    certs = brute_force(opdc)
    assert certs == [cert("O1", p=(1, 1))]
    assert UsoToOpdc(uso).map_back(certs[0]).kind == "US1"


def test_uso_dash_becomes_all_zero():
    uso = UsoInstance(n=2, orient=lambda v: None if v == 2 else 0b11 ^ v)
    opdc = UsoToOpdc(uso).image()
    assert all(opdc.D(i, (0, 1)) == "zero" for i in (0, 1))
    c = cert("O1", p=(0, 1))
    assert verify(opdc, c)
    assert UsoToOpdc(uso).map_back(c) == cert("USV1", v=2)


def test_uso_to_opdc_never_ov3():
    for seed in range(4):
        uso = PlcpToUso(gen_lcp(3, seed, nondegenerate=True)).image()
        opdc = UsoToOpdc(uso).image()
        assert not any(c.kind == "OV3" for c in brute_force(opdc))


def test_violation_free_sources_have_unique_o1():
    # USO sources (n <= 4) and contracting circuits: exactly one O1 and no
    # violations in the exhaustively enumerated grid
    for seed in range(3):
        uso = PlcpToUso(gen_lcp(4, seed, nondegenerate=True)).image()
        certs = brute_force(UsoToOpdc(uso).image())
        assert [c.kind for c in certs] == ["O1"]
    for seed in range(3):
        for d in (1, 2):
            # generated fixpoints are 16ths, so a 2^5 grid contains them
            inst = gen_contraction(d, seed, kappa=(5,) * d)
            certs = brute_force(ContractionToOpdc(inst).image(), budget=1 << 17)
            assert [c.kind for c in certs] == ["O1"], (seed, d, certs)


def test_uso_violation_maps_to_usv2():
    from potline.generators import gen_uso

    uso = gen_uso(2, seed=5, broken=True)
    opdc = UsoToOpdc(uso).image()
    certs = [c for c in brute_force(opdc) if c.kind != "O1"]
    assert certs
    for c in certs:
        mb = UsoToOpdc(uso).map_back(c)
        assert verify(uso, mb)


# -- kappa ---------------------------------------------------------------------

def test_compute_kappa_formula(monkeypatch):
    import potline.circuits as cc

    monkeypatch.setattr(cc, "measure", lambda c: {"size": 0, "n": 2, "bM": 1, "bq": 1})
    circ = affine_circuit([[F(1, 2), F(0)], [F(0), F(1, 2)]], [F(1, 4), F(1, 4)])
    assert compute_kappa(circ) == (51, 26)


def test_kappa_single_dimension():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    from potline.circuits import measure

    stats = measure(circ)
    kap = compute_kappa(circ)
    n, bm, bq = stats["n"], stats["bM"], stats["bq"]
    from potline.rational import ceil_log2

    inner = (5 * n + 2) * ceil_log2(n) + n + (4 * n + 2) * bm + 1
    assert kap == (inner + bq,)


def test_kappa_monotone():
    for seed in range(4):
        inst = gen_contraction(3, seed)
        kap = compute_kappa(inst.circuit)
        assert all(a >= b for a, b in zip(kap, kap[1:]))


# -- PL-Contraction -> OPDC ------------------------------------------------------

def test_contraction_to_opdc_fixpoint_on_grid():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(4,))
    view = ContractionToOpdc(inst)
    opdc = view.image()
    o1 = [c for c in brute_force(opdc) if c.kind == "O1"]
    assert len(o1) == 1 and o1[0].p == (8,)  # 8/16 = 1/2
    assert view.map_back(o1[0]) == cert("CM1", x=[F(1, 2)])


def test_identity_grid_all_o1_and_ov1():
    circ = affine_circuit([[F(1)]], [F(0)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(2,))
    view = ContractionToOpdc(inst)
    opdc = view.image()
    certs = brute_force(opdc)
    o1s = [c for c in certs if c.kind == "O1"]
    ov1s = [c for c in certs if c.kind == "OV1"]
    assert len(o1s) == 5 and ov1s
    mb = view.map_back(ov1s[0])
    assert mb.kind == "CMV1" and verify(inst, mb)


def test_escaping_map_gives_ov3_cmv2():
    circ = affine_circuit([[F(1)]], [F(1, 2)])  # f(x) = x + 1/2
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(2,))
    view = ContractionToOpdc(inst)
    opdc = view.image()
    ov3 = [c for c in brute_force(opdc) if c.kind == "OV3"]
    assert ov3
    mb = view.map_back(ov3[0])
    assert mb.kind == "CMV2" and verify(inst, mb)


def test_ov2_maps_to_cmv3():
    # f(x) = clamp(-2x + 3/17): adjacent flip around 1/17 on a 2^4 grid
    inst = gen_contraction(1, seed=0, contracting=False, kappa=(4,))
    view = ContractionToOpdc(inst)
    opdc = view.image()
    ov2 = [c for c in brute_force(opdc) if c.kind == "OV2"]
    assert ov2
    mb = view.map_back(ov2[0])
    assert mb.kind == "CMV3" and verify(inst, mb)


# -- OPDC -> UFEOPL ----------------------------------------------------------------

def test_opdc_to_ufeopl_walk_1d():
    inst = opdc_from_table((2,), {(0,): ["up"], (1,): ["zero"], (2,): ["down"]})
    view = OpdcLineView(inst)
    line = view.image()
    assert line.V(0) == 0
    x1 = line.S(0)
    assert line.V(x1) == 1
    c = follow_line(line, 0)
    assert c.kind == "UF1"
    assert view.map_back(c) == cert("O1", p=(1,))


def test_opdc_to_ufeopl_unique_line_2d():
    table = {}
    for x in range(3):
        for y in range(3):
            table[(x, y)] = [
                "up" if x < 1 else ("zero" if x == 1 else "down"),
                "up" if y < 2 else "zero",
            ]
    inst = opdc_from_table((2, 2), table)
    view = OpdcLineView(inst)
    line = view.image()
    certs = brute_force(line)
    assert [c.kind for c in certs] == ["UF1"]
    assert view.map_back(certs[0]) == cert("O1", p=(1, 2))


def test_opdc_to_ufeopl_uso_sources():
    for seed in range(4):
        uso = PlcpToUso(gen_lcp(2, seed, nondegenerate=True)).image()
        opdc = UsoToOpdc(uso).image()
        view = OpdcLineView(opdc)
        line = view.image()
        certs = brute_force(line)
        assert len([c for c in certs if c.kind == "UF1"]) == 1
        for c in certs:
            mb = view.map_back(c)
            assert verify(opdc, mb)


def test_opdc_to_ufeopl_two_zero_column():
    # OV1-bearing source: a column with two zeros
    table = {
        (0,): ["up"], (1,): ["zero"], (2,): ["zero"], (3,): ["down"],
    }
    inst = opdc_from_table((3,), table)
    view = OpdcLineView(inst)
    line = view.image()
    for c in brute_force(line):
        mb = view.map_back(c)
        assert verify(inst, mb)


def test_opdc_to_ufeopl_equal_potential_witnesses():
    # two 0-surface fixpoints at the same height in the same column of
    # dimension 1: tuples witness them with equal potential -> UFV1 -> OV1
    table = {}
    for x in range(3):
        for y in range(3):
            dx = {0: "zero", 1: "zero", 2: "up"}[x] if y == 0 else (
                "zero" if x == 1 else ("up" if x < 1 else "down"))
            dy = "up" if y < 2 else "zero"
            table[(x, y)] = [dx, dy]
    inst = opdc_from_table((2, 2), table)
    view = OpdcLineView(inst)
    line = view.image()
    certs = brute_force(line)
    ufv1 = [c for c in certs if c.kind == "UFV1"]
    assert ufv1
    for c in certs:
        mb = view.map_back(c)
        assert verify(inst, mb)


def test_opdc_to_ufeopl_column_search_case():
    # zero below, up above in dimension 0 with the boundary pointing down:
    # the UFV1 map-back needs the in-column binary search
    table = {
        (0,): ["up"], (1,): ["zero"], (2,): ["up"], (3,): ["up"], (4,): ["down"],
    }
    inst = opdc_from_table((4,), table)
    view = OpdcLineView(inst)
    line = view.image()
    certs = brute_force(line)
    for c in certs:
        mb = view.map_back(c)
        assert verify(inst, mb)


@pytest.mark.parametrize("dirs, want", [
    # up over 1..4, down over 5..8: the bisection closes on the adjacent pair.
    (["zero"] + ["up"] * 4 + ["down"] * 4, cert("OV2", level=1, p=(5,), q=(4,))),
    # a second zero at a bisection midpoint.
    (["zero"] + ["up"] * 3 + ["zero"] + ["down"] * 4, cert("OV1", level=1, p=(0,), q=(4,))),
])
def test_column_search_bisects_the_column(dirs, want):
    inst = opdc_from_table((8,), {(t,): [d] for t, d in enumerate(dirs)})
    assert _column_search(inst, (0,), (1,)) == want
    assert verify(inst, want)


def test_opdc_boundary_stuck_ov3():
    # all-up column: the walk sticks at the top boundary
    table = {(0,): ["up"], (1,): ["up"], (2,): ["up"]}
    inst = opdc_from_table((2,), table)
    view = OpdcLineView(inst)
    line = view.image()
    c = follow_line(line, 0)
    assert c.kind == "UF1"
    mb = view.map_back(c)
    assert mb == cert("OV3", level=1, p=(2,))


def test_surface_tuple_potential_strictly_increases():
    # on violation-free sources, V increases along every valid edge
    for seed in range(3):
        uso = PlcpToUso(gen_lcp(3, seed, nondegenerate=True)).image()
        opdc = UsoToOpdc(uso).image()
        view = OpdcLineView(opdc)
        line = view.image()
        for code in view.enumerate_codes(default_budget()):
            nxt = line.S(code)
            if nxt != code and line.S(nxt) != nxt:
                assert line.V(nxt) > line.V(code)


def test_surface_tuple_validity_preserved_by_successor():
    # on violation-free sources, S maps valid non-terminal tuples to valid
    # tuples (the impossible cases of the construction never fire)
    for seed in range(3):
        uso = PlcpToUso(gen_lcp(3, seed, nondegenerate=True)).image()
        opdc = UsoToOpdc(uso).image()
        view = OpdcLineView(opdc)
        line = view.image()
        for code in view.enumerate_codes(default_budget()):
            nxt = line.S(code)
            if nxt != code:
                tup = view.decode(nxt)
                assert tup is not None and view.is_vertex_tuple(tup)
