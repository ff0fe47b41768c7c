import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import affine_ref, lcp_failure_ref, verify_lcp_ref, verify_opdc_ref
from potline.circuits import affine_circuit
from potline.problems import (
    ContractionInstance,
    LcpInstance,
    OpdcInstance,
    UsoInstance,
    VariantMismatch,
    cert,
    cert_from_json,
    cert_to_json,
    explain_rejection,
    lcp_from_json,
    lcp_to_json,
    line_from_json,
    line_from_tables,
    line_to_json,
    opdc_from_json,
    opdc_to_json,
    uso_from_json,
    uso_to_json,
    verify,
    verify_line,
)
from potline.rational import int_row
from potline.solvers import lemke


def three_vertex_line(flavor="ueopl"):
    # 0 -> 1 -> 2 with potentials 0, 1, 2
    return line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 1, 2: 2}, flavor=flavor)


def test_u1_at_end_of_line():
    inst = three_vertex_line()
    assert verify_line(inst, cert("U1", x=2))  # S(2)=2 self-loop convention
    assert not verify_line(inst, cert("U1", x=0))
    assert not verify_line(inst, cert("U1", x=1))


def test_uv1_rejects_increasing_edge():
    inst = three_vertex_line()
    assert not verify_line(inst, cert("UV1", x=0))


def test_uv1_accepts_potential_drop():
    inst = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 1, 2: 1}, flavor="ueopl")
    assert verify_line(inst, cert("UV1", x=1))


def test_uv3_two_lines():
    # line A: 0 -> a (V 0, 1); line B: b -> c (V(b)=1, V(c)=2).  Both ends
    # point at strings that do not point back, so a and b stay vertices.
    a, b, c = 1, 2, 3
    inst = line_from_tables(
        2, {0: a, a: 0, b: c, c: 0}, {a: 0, c: b}, {a: 1, b: 1, c: 2}, flavor="ueopl"
    )
    assert verify_line(inst, cert("UV3", x=a, y=b))
    assert verify_line(inst, cert("UV3", x=b, y=a))  # equal potentials
    assert not verify_line(inst, cert("UV3", x=a, y=a))


def test_uv3_between():
    # V(x) < V(y) < V(S(x)) reading of the second disjunct
    x, sx, y = 1, 2, 3
    inst = line_from_tables(
        2, {0: x, x: sx}, {x: 0, sx: x}, {x: 1, sx: 4, y: 2}, flavor="ueopl"
    )
    # y is a vertex on another line
    inst2 = line_from_tables(
        2, {0: x, x: sx, y: 0}, {x: 0, sx: x}, {x: 1, sx: 4, y: 2}, flavor="ueopl"
    )
    assert verify_line(inst2, cert("UV3", x=x, y=y))
    # not a vertex -> reject
    assert not verify_line(inst, cert("UV3", x=x, y=y))


def test_variant_mismatch():
    inst = three_vertex_line("eopl")
    with pytest.raises(VariantMismatch):
        verify_line(inst, cert("U1", x=2))


def test_eopl_certs():
    inst = three_vertex_line("eopl")
    assert verify_line(inst, cert("R1", x=2))
    inst2 = line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {1: 2, 2: 1}, flavor="eopl")
    assert verify_line(inst2, cert("R2", x=1))


def test_ufeopl_certs():
    # the table end 2 self-loops, so UF1 fires at its predecessor
    inst = line_from_tables(2, {0: 1, 1: 2}, None, {1: 1, 2: 2}, flavor="ufeopl")
    assert verify_line(inst, cert("UF1", x=1))
    assert not verify_line(inst, cert("UF1", x=2))
    flat = line_from_tables(2, {0: 1, 1: 2}, None, {1: 1, 2: 1}, flavor="ufeopl")
    assert verify_line(flat, cert("UF1", x=1))


def test_ufeoplplus1_certs():
    inst = line_from_tables(2, {0: 1, 1: 2}, None, {1: 1, 2: 3}, flavor="ufeoplplus1")
    assert verify_line(inst, cert("UFP1", x=1))  # gap 2 edge
    assert not verify_line(inst, cert("UFP1", x=0))


@pytest.mark.parametrize("v_table", [{0: 0, 1: -3, 2: 1}, {0: 0, 1: 2, 2: 40}])
def test_line_rejects_potentials_outside_the_range(v_table):
    # The normalization's low field holds potentials in [0, 2^m_pot), so a
    # table with one outside is refused when it is built, not mid-walk.
    line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, {0: 0, 1: 2, 2: 3}, flavor="ueopl", m_pot=2)
    with pytest.raises(ValueError, match="field 'V': potential (-3|40) of vertex"):
        line_from_tables(2, {0: 1, 1: 2}, {1: 0, 2: 1}, v_table, flavor="ueopl", m_pot=2)


def test_opdc_certs():
    d1 = {(0,): "up", (1,): "zero", (2,): "down"}
    inst = OpdcInstance(widths=(2,), direction=lambda p: (d1[p],))
    assert verify(inst, cert("O1", p=(1,)))
    assert not verify(inst, cert("O1", p=(0,)))

    d2 = {(0,): "up", (1,): "down"}
    inst2 = OpdcInstance(widths=(1,), direction=lambda p: (d2[p],))
    assert verify(inst2, cert("OV2", level=1, p=(1,), q=(0,)))

    d3 = {(0,): "down", (1,): "up"}
    inst3 = OpdcInstance(widths=(1,), direction=lambda p: (d3[p],))
    assert verify(inst3, cert("OV3", level=1, p=(0,)))
    assert verify(inst3, cert("OV3", level=1, p=(1,)))

    d4 = {(0,): "zero", (1,): "zero"}
    inst4 = OpdcInstance(widths=(1,), direction=lambda p: (d4[p],))
    assert verify(inst4, cert("OV1", level=1, p=(0,), q=(1,)))
    assert not verify(inst4, cert("OV1", level=1, p=(0,), q=(0,)))


def test_verify_opdc_matches_reference():
    # Every kind at every level 0..d+1 and every ordered pair of points,
    # p = q, pairs that differ outside their slice and OV2 pairs that are
    # not adjacent among them, on seeded random grids.
    accepted = set()
    for seed in range(24):
        rng = random.Random(seed)
        d = 1 + seed % 3
        widths = tuple(rng.randint(1, 3) for _ in range(d))
        table = {p: tuple(rng.choice(["up", "down", "zero", "zero"]) for _ in range(d))
                 for p in product(*[range(k + 1) for k in widths])}
        inst = OpdcInstance(widths=widths, direction=table.__getitem__)
        for p in table:
            cands = [cert("O1", p=p)] + [cert("OV3", level=lvl, p=p) for lvl in range(d + 2)]
            cands += [cert(kind, level=lvl, p=p, q=q)
                      for q in table for lvl in range(d + 2) for kind in ("OV1", "OV2")]
            for c in cands:
                got = verify(inst, c)
                assert got == verify_opdc_ref(inst, c), (seed, c)
                if got:
                    accepted.add(c.kind)
    assert accepted == {"O1", "OV1", "OV2", "OV3"}


def test_uso_certs():
    inst = UsoInstance(n=1, orient=lambda v: {0: 1, 1: 0}[v])
    assert verify(inst, cert("US1", v=1))
    inst2 = UsoInstance(n=2, orient=lambda v: 0 if v in (0b00, 0b11) else 0b11)
    assert verify(inst2, cert("USV2", v=0b00, u=0b11))
    inst3 = UsoInstance(n=1, orient=lambda v: None)
    assert verify(inst3, cert("USV1", v=0))


def test_lcp_certs():
    inst = LcpInstance(M=[[2, 1], [1, 2]], q=[-1, -1])
    assert verify(inst, cert("Q1", y=[F(1, 3), F(1, 3)]))
    assert not verify(inst, cert("Q1", y=[F(1, 3), F(1, 2)]))
    zero_diag = LcpInstance(M=[[0, 1], [1, 2]], q=[-1, -1])
    assert verify(zero_diag, cert("PV1", alpha=frozenset({0})))
    rot = LcpInstance(M=[[0, -1], [1, 0]], q=[-1, -1])
    assert verify(rot, cert("PV2", x=[F(1), F(0)]))
    assert not verify(rot, cert("PV2", x=[F(0), F(0)]))


def test_contraction_certs():
    circ = affine_circuit([[F(1, 2)]], [F(1, 4)])
    inst = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=circ, kappa=(4,))
    assert verify(inst, cert("CM1", x=[F(1, 2)]))
    assert not verify(inst, cert("CM1", x=[F(1, 4)]))

    ident = affine_circuit([[F(1)]], [F(0)])
    ii = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=ident, kappa=(4,))
    assert verify(ii, cert("CMV1", x=[F(0)], y=[F(1)]))

    esc = affine_circuit([[F(1)]], [F(1, 2)])
    ei = ContractionInstance(d=1, c=F(1, 2), p=2, circuit=esc, kappa=(4,))
    assert verify(ei, cert("CMV2", x=[F(3, 4)]))


def test_rational_canonical_form():
    # equal values compare equal regardless of construction path
    assert F(2, 4) == F(1, 2) and F(-3, -6) == F(1, 2)
    assert F(1, 3) + F(1, 6) == F(1, 2)


def test_eopl_totality_random_tables():
    from potline.solvers import brute_force

    n = 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def prop(data):
        size = 1 << n
        s, p, v = {}, {0: 0}, {0: 0}
        s[0] = data.draw(st.integers(1, size - 1))
        p[s[0]] = 0
        for x in range(1, size):
            if data.draw(st.booleans()):
                s.setdefault(x, data.draw(st.integers(0, size - 1)))
            if x not in p and data.draw(st.booleans()):
                p[x] = data.draw(st.integers(0, size - 1))
            v[x] = data.draw(st.integers(0, 7))
        inst = line_from_tables(n, s, p, v, flavor="eopl")
        certs = brute_force(inst)
        assert any(c.kind in ("R1", "R2") for c in certs)

    prop()


def test_json_roundtrips():
    inst = three_vertex_line()
    li = line_from_json(line_to_json(inst))
    for x in range(4):
        assert li.S(x) == inst.S(x) and li.V(x) == inst.V(x) and li.P(x) == inst.P(x)

    lcp = LcpInstance(M=[[2, 1], [1, 2]], q=[F(-1, 3), -1])
    lcp2 = lcp_from_json(lcp_to_json(lcp))
    assert lcp2.M == lcp.M and lcp2.q == lcp.q

    d1 = {(0,): "up", (1,): "zero", (2,): "down"}
    op = OpdcInstance(widths=(2,), direction=lambda p: (d1[p],))
    op2 = opdc_from_json(opdc_to_json(op))
    assert [op2.D(0, (t,)) for t in range(3)] == ["up", "zero", "down"]

    uso = UsoInstance(n=1, orient=lambda v: {0: 1, 1: 0}[v])
    uso2 = uso_from_json(uso_to_json(uso))
    assert uso2.orient(0) == 1 and uso2.orient(1) == 0

    c = cert("Q1", y=[F(1, 3), F(1, 3)])
    c2 = cert_from_json(cert_to_json(c), "plcp")
    assert c2 == c


# -- the LCP verifier against a plain-Fraction reference ------------------------

LCP_ENTRY = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=9))


def _draw_lcp(data) -> LcpInstance:
    d = data.draw(st.integers(1, 6))
    m = [[data.draw(LCP_ENTRY) for _ in range(d)] for _ in range(d)]
    return LcpInstance(M=m, q=[data.draw(LCP_ENTRY) for _ in range(d)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lcp_products_match_reference(data):
    # The verifier's integer sums at sx (x, 1) and sx (x, 0), for sx the lcm
    # of x's denominators, are row r of M x + q and of M x times s_r and sx,
    # so they carry the rows' signs.
    inst = _draw_lcp(data)
    x = [data.draw(LCP_ENTRY) for _ in range(inst.d)]
    sx, xs = int_row(x)
    assert sx == math.lcm(*[v.denominator for v in x])
    for got, want in [(inst.form.sums(xs + [sx]), affine_ref(inst.M, x, inst.q)),
                      (inst.form.sums(xs + [0]), affine_ref(inst.M, x))]:
        assert all(type(v) is int for v in got)
        assert [_sign(v) for v in got] == [_sign(v) for v in want]
        assert got == [s * sx * v for s, v in zip(inst.form.s, want)]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_lcp_matches_reference(data):
    inst = _draw_lcp(data)
    c = lemke(inst)
    assert verify(inst, c) and verify_lcp_ref(inst, c)
    vec = list(c.y if c.kind == "Q1" else c.x if c.kind == "PV2" else [F(0)] * inst.d)
    for _ in range(data.draw(st.integers(1, 3))):
        vec[data.draw(st.integers(0, inst.d - 1))] = data.draw(LCP_ENTRY)
    for other in (cert("Q1", y=vec), cert("PV2", x=vec)):
        assert verify(inst, other) == verify_lcp_ref(inst, other)
        # A rejection names the first clause that fails in Fraction.
        reason = lcp_failure_ref(inst, other)
        if reason is not None:
            assert explain_rejection(inst, other) == reason
