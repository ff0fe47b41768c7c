import hashlib
from fractions import Fraction as F
from itertools import combinations

from potline.circuits import evaluate
from potline.generators import (
    gen_contraction,
    gen_lcp,
    gen_line,
    gen_uso,
)
from potline.pivoting import principal_minor
from potline.problems import cert, verify
from potline.solvers import brute_force, find_fp, follow_line

from helpers import gen_normalized_line


def test_gen_lcp_determinism():
    a = gen_lcp(3, 42)
    b = gen_lcp(3, 42)
    assert a.M == b.M and a.q == b.q
    c = gen_lcp(3, 43)
    assert (a.M, a.q) != (c.M, c.q)


# Digest of [(M, q)] over seeds 0..5 per (mode, d); the non-P and
# nondegenerate modes check every cone, so they stop at d = 8.
PINNED_GEN_LCP = {
    ('p', 1): 'c012fab45499c775',
    ('p', 2): '3893e9fd515be61f',
    ('p', 3): '9615dc90f4615d84',
    ('p', 4): '14b3d4aff17b6e92',
    ('p', 5): '575f3db103bfa501',
    ('p', 6): '221282a403d79ad4',
    ('p', 7): 'ca71c2fdb245321d',
    ('p', 8): 'd2d60fca041be9db',
    ('p', 9): 'db26d2ae3174d02e',
    ('p', 10): '33e6df75cec0cca8',
    ('p', 11): '62148f4cb95d66ab',
    ('p', 12): '5e930436e902acb1',
    ('p', 13): 'b5cc1f109988818c',
    ('p', 14): '3755cfa7d2119579',
    ('p', 15): '10a3e9d6312ec2ec',
    ('p', 16): '8128644a15c362b4',
    ('np', 1): '877065a13fff49e0',
    ('np', 2): '912806138fe37e12',
    ('np', 3): '145e055b2672622f',
    ('np', 4): '3bdb5fd74b39d3ab',
    ('np', 5): '2df69d935f40399f',
    ('np', 6): '269775dcb19d73ff',
    ('np', 7): '779ef440f51350bb',
    ('np', 8): 'e53d1a6d143bef12',
    ('nd', 1): 'c012fab45499c775',
    ('nd', 2): 'd7e400ffe0c8535d',
    ('nd', 3): '9615dc90f4615d84',
    ('nd', 4): '14b3d4aff17b6e92',
    ('nd', 5): 'c07acba60f17323b',
    ('nd', 6): '221282a403d79ad4',
    ('nd', 7): 'ca71c2fdb245321d',
    ('nd', 8): 'd2d60fca041be9db',
}


def test_gen_lcp_pinned():
    modes = {"p": {}, "np": {"p_matrix": False}, "nd": {"nondegenerate": True}}
    got = {}
    for (mode, d) in PINNED_GEN_LCP:
        insts = [gen_lcp(d, s, **modes[mode]) for s in range(6)]
        got[mode, d] = hashlib.sha256(repr([(i.M, i.q) for i in insts]).encode()).hexdigest()[:16]
    assert got == PINNED_GEN_LCP


def test_gen_lcp_p_matrix_minors():
    for seed in range(5):
        inst = gen_lcp(3, seed)
        for r in range(1, 4):
            for sub in combinations(range(3), r):
                assert principal_minor(inst.M, sub) > 0


def test_gen_lcp_non_p():
    for seed in range(5):
        inst = gen_lcp(2, seed, p_matrix=False)
        assert verify(inst, cert("PV1", alpha=frozenset({0})))


def test_gen_uso_is_uso():
    uso = gen_uso(3, seed=1)
    for v, u in combinations(range(8), 2):
        ov, ou = uso.orient(v), uso.orient(u)
        assert ov is not None and ou is not None
        assert (v ^ u) & (ov ^ ou) != 0


def test_gen_uso_broken_has_usv2():
    uso = gen_uso(2, seed=3, broken=True)
    certs = brute_force(uso)
    assert any(c.kind == "USV2" for c in certs)


def test_gen_contraction_fixpoint():
    for seed in range(5):
        inst = gen_contraction(2, seed)
        x = inst.fixpoint
        assert evaluate(inst.circuit, x) == x
        assert all(0 <= v <= 1 for v in x)
        c = find_fp(inst)
        assert c == cert("CM1", x=x)


def test_gen_contraction_sampled_lipschitz():
    import random

    rng = random.Random(0)
    inst = gen_contraction(2, seed=7, p=2)
    cp = inst.c**2
    for _ in range(100):
        x = [F(rng.randrange(0, 33), 32) for _ in range(2)]
        y = [F(rng.randrange(0, 33), 32) for _ in range(2)]
        fx, fy = inst.f(x), inst.f(y)
        lhs = [a - b for a, b in zip(fx, fy)]
        rhs = [a - b for a, b in zip(x, y)]
        from potline.rational import lp_pow

        assert lp_pow(lhs, 2) <= cp * lp_pow(rhs, 2)


def test_gen_contraction_in_box():
    import random

    rng = random.Random(1)
    for seed in range(4):
        inst = gen_contraction(3, seed)
        for _ in range(20):
            x = [F(rng.randrange(0, 17), 16) for _ in range(3)]
            assert all(0 <= v <= 1 for v in inst.f(x))


def test_gen_noncontraction_violation():
    inst = gen_contraction(1, seed=2, contracting=False, kappa=(4,))
    c = find_fp(inst)
    assert c.kind == "CMV3" and verify(inst, c)


def test_gen_line_shapes():
    inst = gen_line(4, seed=0, flavor="ueopl", gaps=[1, 1, 1])
    c = follow_line(inst, 0)
    assert c.kind == "U1"
    multi = gen_line(6, seed=1, flavor="ueopl", two_lines=True)
    certs = brute_force(multi)
    assert any(c.kind == "UV3" for c in certs)


def test_gen_line_determinism():
    a = gen_line(8, seed=5)
    b = gen_line(8, seed=5)
    for x in range(a.size):
        assert a.S(x) == b.S(x) and a.V(x) == b.V(x)


def test_gen_normalized_line():
    inst = gen_normalized_line(3, seed=2)
    x, steps = 0, 0
    while True:
        nxt = inst.S(x)
        if nxt == x or inst.P(nxt) != x:
            break
        assert inst.V(nxt) == inst.V(x) + 1
        x, steps = nxt, steps + 1
    assert steps == 7 and inst.V(x) == 7
    assert verify(inst, cert("U1", x=x))
