import ast
import functools
import json
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from potline import circuits as circuits_module
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
from potline.problems import KINDS, LcpInstance, cert, verify
from potline.rational import lp_pow
from potline.solvers import RunStats, brute_force, find_fp
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
    q1s = [cc for cc in brute_force(inst) if cc.kind == "Q1"]
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
    assert verify(inst, cert("Q1", y=y))


def test_circuit_to_lcp_dimension_bound():
    for c in (identity_circuit(2), halfscale_circuit(),
              affine_circuit([[F(1, 2), F(0)], [F(1, 4), F(1, 4)]], [F(1, 8), F(1, 8)])):
        m, q = circuit_to_lcp(c)
        assert c.d <= len(q) <= measure(c)["size"]


def test_circuit_to_lcp_max_gate():
    # f(x) = max(1/2, x): fixpoints are [1/2, 1]; f(x) = min(x, 1/2):
    # [0, 1/2]; f(x) = 1 - x, a sub gate: 1/2.  Brute force finds a Q1 on
    # each LCP, and each Q1 is a fixpoint.
    for op, args in (("max", (0, 1)), ("min", (0, 1)), ("sub", (1, 0))):
        gates = (
            Gate("input", (0,)),
            Gate("const", (F(1) if op == "sub" else F(1, 2),)),
            Gate(op, args),
        )
        c = Circuit(1, gates, (2,))
        m, q = circuit_to_lcp(c)
        inst = LcpInstance(M=m, q=q)
        q1s = [cc for cc in brute_force(inst) if cc.kind == "Q1"]
        assert q1s, op
        for cc in q1s:
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


# -- one program per circuit, compiled once per shape -------------------------

def _random_circuit(rng, d, size, constants):
    """A seeded circuit of `size` gates over all ops; const and scale draw
    from `constants`."""
    gates = [Gate("input", (j,)) for j in range(d)]
    while len(gates) < size:
        op = rng.choice(["input", "const", "scale", "add", "sub", "max", "min"])
        ref = lambda: rng.randrange(len(gates))  # noqa: E731
        if op == "input":
            gates.append(Gate(op, (rng.randrange(d),)))
        elif op == "const":
            gates.append(Gate(op, (rng.choice(constants),)))
        elif op == "scale":
            gates.append(Gate(op, (rng.choice(constants), ref())))
        else:
            gates.append(Gate(op, (ref(), ref())))
    return Circuit(d, tuple(gates), tuple(rng.randrange(len(gates)) for _ in range(d)))


SMALL = [F(a, b) for a in (-3, -1, 0, 1, 2, 5) for b in (1, 2, 3, 8)]


def _long_constant():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on int-to-str conversion on this Python")
    return F(10 ** (limit + 5) + 1, 3 * 10 ** (limit + 1))


def _seeded_circuit(seed):
    rng = random.Random(seed)
    return _random_circuit(rng, rng.randint(1, 4), rng.randint(1, 30), SMALL)


def _tier_cases():
    cases = [pytest.param(functools.partial(_seeded_circuit, seed), id=f"seed{seed}") for seed in range(20)]
    cases.append(pytest.param(lambda: _random_circuit(random.Random(1), 3, 1200, [F(1, 2), F(-1), F(3, 4), F(2)]),
                              id="1200-gates"))
    cases.append(pytest.param(lambda: affine_circuit([[F(1, 2), -_long_constant()], [F(1, 3), F(0)]],
                                                     [_long_constant(), F(1, 4)]), id="long-constant"))
    return cases


def _spy_compile(monkeypatch) -> list:
    """Record each source text the circuits module compiles."""
    sources = []

    def spy(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(circuits_module, "compile", spy, raising=False)
    return sources


@pytest.mark.parametrize("make", _tier_cases())
def test_both_tiers_equal_evaluate(make, monkeypatch):
    # The program equals evaluate from its first call, both when
    # compile_circuit compiles its code and when it takes that code from the
    # shape cache.
    c = make()
    circuits_module._make.cache_clear()
    sources = _spy_compile(monkeypatch)
    rng = random.Random(len(c.gates))
    for _ in range(2):
        run = compile_circuit(c)
        assert len(sources) == 1
        for _ in range(8):
            D = rng.choice([1, 7, 96, 1 << 12])
            xs = [rng.randrange(-D, 2 * D + 1) for _ in range(c.d)]
            nums, den = run(xs, D)
            assert den > 0 and [F(n, den) for n in nums] == evaluate(c, [F(x, D) for x in xs])
        with pytest.raises(ValueError, match="point dimension mismatch"):
            run([0] * (c.d + 1), 1)
    # The only literals of the generated code are the error message and
    # input positions up to d; every other integer is a closure cell.
    (source,) = sources
    literals = {node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)}
    assert literals - {"point dimension mismatch"} <= set(range(c.d + 1))


def test_one_compile_per_circuit_shape(monkeypatch):
    circuits_module._make.cache_clear()
    sources = _spy_compile(monkeypatch)
    # Two affine maps of one shape: the same gates, and no lcm factor of 1
    # in either, with different constants.
    one = affine_circuit([[F(1, 2), F(1, 3)], [F(0), F(1, 4)]], [F(1, 8), F(3, 5)])
    two = affine_circuit([[F(-2, 5), F(1, 7)], [F(0), F(3, 4)]], [F(2, 9), F(-1, 6)])
    for c in (one, two):
        for x in ([F(0), F(1)], [F(1, 3), F(-5, 7)], [F(2), F(9, 4)]):
            _program_matches(c, x)
    assert len(sources) == 1
    # A contraction file loaded twice compiles once.
    data = json.dumps(KINDS["contraction"].to_json(gen_contraction(3, 1)))
    for _ in range(2):
        KINDS["contraction"].from_json(json.loads(data)).f_int([1, 2, 3], 4)
    assert len(sources) == 2
    stats = RunStats()
    assert find_fp(gen_contraction(5, 5), stats=stats).kind == "CM1" and stats.oracle_calls == 1728
    assert len(sources) == 3
