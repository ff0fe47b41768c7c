import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from potline.circuits import (
    Circuit,
    Gate,
    affine_circuit,
    circuit_from_json,
    circuit_to_json,
    circuit_to_lcp,
    compile_circuit,
    evaluate,
    measure,
)
from potline.generators import gen_contraction
from potline.problems import LcpInstance
from potline.rational import lp_pow
from potline.solvers import lcp_brute_force
from test_fixpoint_pin import clamped_rotation


def identity_circuit(d):
    return Circuit(d, tuple(Gate("input", (i,)) for i in range(d)), tuple(range(d)))


def halfscale_circuit():
    # f(x) = x/2 + 1/4
    return affine_circuit([[F(1, 2)]], [F(1, 4)])


def test_eval_identity():
    c = identity_circuit(2)
    assert evaluate(c, [F(1, 3), F(2, 3)]) == [F(1, 3), F(2, 3)]


def test_eval_affine():
    assert evaluate(halfscale_circuit(), [F(1, 2)]) == [F(1, 2)]
    c = affine_circuit([[F(0), F(1, 2)], [F(1, 2), F(0)]], [F(1, 4), F(1, 4)])
    assert evaluate(c, [F(0), F(0)]) == [F(1, 4), F(1, 4)]


def test_eval_not_clamped():
    # f(x) = x + 1/2 escapes the box; eval must report it raw
    c = affine_circuit([[F(1)]], [F(1, 2)])
    assert evaluate(c, [F(3, 4)]) == [F(5, 4)]


def test_measure_identity():
    c = identity_circuit(2)
    stats = measure(c)
    assert stats["size"] == 2 + len(c.gates)
    assert stats["n"] >= 2
    assert measure(c) == stats  # deterministic


def test_measure_constants():
    c = halfscale_circuit()
    # constants 1/2 (b=1) and 1/4 (b=2) contribute 3 bits
    assert measure(c)["size"] == 1 + len(c.gates) + 3


def test_rejects_bad_gates():
    with pytest.raises(ValueError):
        circuit_from_json({"d": 1, "gates": [{"op": "div", "args": [0, 0]}], "outputs": [0]})
    with pytest.raises(ValueError):
        Circuit(1, (Gate("add", (0, 1)),), (0,))  # forward reference


def test_json_roundtrip():
    c = affine_circuit([[F(1, 2), F(-1, 4)], [F(0), F(1, 3)]], [F(1, 8), F(2, 5)])
    c2 = circuit_from_json(circuit_to_json(c))
    assert c2 == c


def test_circuit_to_lcp_bijection_halfscale():
    c = halfscale_circuit()
    m, q = circuit_to_lcp(c)
    inst = LcpInstance(M=m, q=q)
    q1s = [cc for cc in lcp_brute_force(inst) if cc.kind == "Q1"]
    fixpoints = {tuple(cc.y[: c.d]) for cc in q1s}
    assert fixpoints == {(F(1, 2),)}
    for cc in q1s:
        x = list(cc.y[: c.d])
        assert evaluate(c, x) == x


def test_circuit_to_lcp_identity_spot():
    c = identity_circuit(1)
    m, q = circuit_to_lcp(c)
    inst = LcpInstance(M=m, q=q)
    # every x in [0,1] is a fixpoint; check one mapped solution
    y = [F(1, 3)] + [F(0)] * (len(q) - 1)
    w = inst.w_of(y)
    assert all(v >= 0 for v in w) and all(a * b == 0 for a, b in zip(y, w))


def test_circuit_to_lcp_dimension_bound():
    for c in (identity_circuit(2), halfscale_circuit(),
              affine_circuit([[F(1, 2), F(0)], [F(1, 4), F(1, 4)]], [F(1, 8), F(1, 8)])):
        m, q = circuit_to_lcp(c)
        assert c.d <= len(q) <= measure(c)["size"]


def test_circuit_to_lcp_max_gate():
    # f(x) = max(1/2, x): fixpoints are [1/2, 1]
    gates = (
        Gate("input", (0,)),
        Gate("const", (F(1, 2),)),
        Gate("max", (0, 1)),
    )
    c = Circuit(1, gates, (2,))
    m, q = circuit_to_lcp(c)
    inst = LcpInstance(M=m, q=q)
    for cc in lcp_brute_force(inst):
        if cc.kind == "Q1":
            x = list(cc.y[: 1])
            assert evaluate(c, x) == x


def test_scaled_add_contraction_property():
    # circuits built from scale(c*, .) on disjoint inputs contract by c*
    rng = random.Random(5)
    cstar = F(1, 2)
    c = affine_circuit([[cstar, F(0)], [F(0), -cstar]], [F(1, 4), F(1, 2)])
    for p in (1, 2, 3):
        for _ in range(20):
            x = [F(rng.randrange(0, 17), 16) for _ in range(2)]
            y = [F(rng.randrange(0, 17), 16) for _ in range(2)]
            fx, fy = evaluate(c, x), evaluate(c, y)
            lhs = [a - b for a, b in zip(fx, fy)]
            rhs = [cstar * (a - b) for a, b in zip(x, y)]
            assert lp_pow(lhs, p) <= lp_pow(rhs, p)


# -- the compiled integer program against evaluate --------------------------

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@st.composite
def circuits(draw):
    """Random circuits over every gate op, with negative and non-dyadic
    constants; the first gate is an input or a const."""
    d = draw(st.integers(1, 3))
    gates = []
    for idx in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(["input", "const"] if idx == 0 else
                                  ["input", "const", "scale", "add", "sub", "max", "min"]))
        ref = st.integers(0, idx - 1)
        if op == "input":
            gates.append(Gate(op, (draw(st.integers(0, d - 1)),)))
        elif op == "const":
            gates.append(Gate(op, (draw(RATIONALS),)))
        elif op == "scale":
            gates.append(Gate(op, (draw(RATIONALS), draw(ref))))
        else:
            gates.append(Gate(op, (draw(ref), draw(ref))))
    outputs = tuple(draw(st.integers(0, len(gates) - 1)) for _ in range(d))
    return Circuit(d, tuple(gates), outputs)


def _program_matches(c, x):
    # x over the lcm D of its denominators, and over 3 D: any positive
    # denominator gives the same map.
    D = math.lcm(*[v.denominator for v in x])
    run, want = compile_circuit(c), evaluate(c, x)
    for k in (1, 3):
        nums, den = run([v.numerator * (k * D // v.denominator) for v in x], k * D)
        assert den > 0 and [F(n, den) for n in nums] == want


@settings(max_examples=300, deadline=None)
@given(circuits(), st.data())
def test_compiled_program_equals_evaluate(c, data):
    # Points inside and outside [0, 1], with any denominators.
    x = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=1000),
                           min_size=c.d, max_size=c.d))
    _program_matches(c, x)


@pytest.mark.parametrize("d", range(1, 7))
def test_compiled_program_on_generated_and_rotation_maps(d):
    rng = random.Random(d)
    maps = [gen_contraction(d, s, contracting=k) for s in range(3) for k in (True, False)]
    if d == 2:
        maps += [clamped_rotation((F(1, 3), F(2, 7)), (60, 20)), clamped_rotation((F(3, 16), F(11, 16)), (8, 8))]
    for inst in maps:
        for _ in range(40):
            dens = [rng.choice([1, 25, 96, 2 ** 12]) for _ in range(d)]
            _program_matches(inst.circuit, [F(rng.randrange(-q, 2 * q + 1), q) for q in dens])


def test_compiled_program_rejects_a_wrong_dimension():
    with pytest.raises(ValueError):
        compile_circuit(identity_circuit(2))([1], 2)
