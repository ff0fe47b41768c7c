"""Seeded instance generators for every problem type.

All generation is a pure function of (kind, sizes, seed): the same
arguments produce the identical instance bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .circuits import Circuit, Gate, affine_circuit
from .problems import (LINE_KINDS, ContractionInstance, LcpInstance, LineInstance, UsoInstance,
                       line_from_tables)
from .rational import frac
from .reductions_lcp import PlcpToUso


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def gen_lcp(d: int, seed: int, p_matrix: bool = True, nondegenerate: bool = False) -> LcpInstance:
    """P-matrix mode: M = B^T B + diag(positive), symmetric positive
    definite and hence a P-matrix; q gets at least one negative entry so
    the Lemke path is nontrivial.  Non-P mode plants a non-positive
    leading principal minor and rejects instances with a singular cone
    A_alpha.  `nondegenerate` rejects instances where some A_alpha^{-1} q
    has a zero entry (checked exhaustively; keep d small).
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    rng = _rng(seed)
    for _ in range(200):
        # M is built in int; LcpInstance wraps it as Fraction.
        b = [[rng.randrange(-3, 4) for _ in range(d)] for _ in range(d)]
        cols = list(zip(*b))
        m = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
        for i in range(d):
            m[i][i] += rng.randrange(1, 4)
        # Rational q with bounded denominators; exact ties (degeneracy)
        # become coincidences instead of the common case.
        q = [Fraction(rng.randrange(-32, 33), rng.randrange(1, 9)) for _ in range(d)]
        if all(v >= 0 for v in q):
            q[rng.randrange(d)] = Fraction(-rng.randrange(1, 33), rng.randrange(1, 9))
        if sorted(q).count(min(q)) > 1:
            continue  # tied minimum degenerates the Lemke start
        if not p_matrix:
            m[0][0] = -rng.randrange(1, 3)
        inst = LcpInstance(M=m, q=q)
        if not p_matrix or nondegenerate:
            sys = inst.system
            cones = (sys.cone_vertex(a) for r in range(d + 1) for a in combinations(range(d), r))
            # A basic value of a cone's vertex is an entry of A_alpha^-1 q.
            if any(v is None or (p_matrix and 0 in v.column(sys.rhs)) for v in cones):
                continue
        return inst
    raise RuntimeError("generator failed to produce an instance")


def gen_uso(n: int, seed: int, broken: bool = False) -> UsoInstance:
    """USO mode reduces a generated P-matrix LCP through the out-map;
    broken mode additionally flips one orientation bit at one vertex,
    planting a Szabo-Welzl violation."""
    uso = PlcpToUso(gen_lcp(n, seed, p_matrix=True, nondegenerate=True)).image()
    if not broken:
        return uso
    rng = _rng(seed ^ 0x5EED)
    v_flip = rng.randrange(1 << n)
    bit = 1 << rng.randrange(n)
    base = uso.orient

    def orient(v):
        o = base(v)
        if v == v_flip and o is not None:
            return o ^ bit
        return o

    return UsoInstance(n=n, orient=orient)


def gen_contraction(d: int, seed: int, p: int = 2, c=Fraction(1, 2),
                    contracting: bool = True, kappa=None):
    """Contracting mode: f(x) = A(x - x*) + x* with row and column sums of
    |A| at most c (so ||A||_p <= c for every p) and a chosen fixpoint x*.
    Non-contracting mode plants, in one coordinate, a steep negative
    slope whose crossing point has denominator beyond the declared grid,
    so the exact solver must emit the adjacent opposing pair.
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    rng = _rng(seed)
    c = frac(c)
    if contracting:
        # Strictly lower-triangular dyadic A: a genuine coupled contraction
        # (row and column sums of |A| stay below c, so ||A||_p <= c for all
        # p) whose slice fixpoints stay dyadic with small denominators, so
        # a modest uniform kappa identifies every binary-search candidate.
        x_star = [Fraction(4 + rng.randrange(0, 9), 16) for _ in range(d)]  # in [1/4, 3/4]
        a = [[Fraction(0)] * d for _ in range(d)]
        bound = c / (2 * max(1, d))
        for i in range(1, d):
            for j in range(i):
                if rng.random() < 0.7:
                    num = rng.randrange(-4, 5)
                    a[i][j] = Fraction(num, 16)
                    if abs(a[i][j]) > bound:
                        a[i][j] = bound if num > 0 else -bound
        b = [x_star[i] - sum(a[i][j] * x_star[j] for j in range(d)) for i in range(d)]
        circ = affine_circuit(a, b)
        if kappa is None:
            need = max(v.denominator.bit_length() for v in x_star) + 1
            for i in range(d):
                need = max(need, b[i].denominator.bit_length() + 1)
            kappa = tuple([max(8, need)] * d)
        inst = ContractionInstance(d=d, c=c, p=p, circuit=circ, kappa=kappa)
        inst.fixpoint = x_star  # ground truth for tests
        return inst
    if kappa is None:
        kappa = tuple([8] * d)
    # Non-contracting: coordinate 0 follows f_0(x) = clamp(-2 x_0 + 3/s)
    # with s odd and s > 2^kappa_0, so the crossing 1/s is off-grid.
    s = (1 << kappa[0]) + 1 + 2 * rng.randrange(0, 4)
    gates = [Gate("input", (i,)) for i in range(d)]
    outputs = []
    gates.append(Gate("scale", (Fraction(-2), 0)))
    gates.append(Gate("const", (Fraction(3, s),)))
    gates.append(Gate("add", (len(gates) - 2, len(gates) - 1)))
    gates.append(Gate("const", (Fraction(0),)))
    gates.append(Gate("max", (len(gates) - 2, len(gates) - 1)))
    gates.append(Gate("const", (Fraction(1),)))
    gates.append(Gate("min", (len(gates) - 2, len(gates) - 1)))
    outputs.append(len(gates) - 1)
    for i in range(1, d):
        gates.append(Gate("scale", (Fraction(1, 4), i)))
        gates.append(Gate("const", (Fraction(1, 4),)))
        gates.append(Gate("add", (len(gates) - 2, len(gates) - 1)))
        outputs.append(len(gates) - 1)
    circ = Circuit(d, tuple(gates), tuple(outputs))
    return ContractionInstance(d=d, c=c, p=p, circuit=circ, kappa=kappa)


def gen_line(length: int, seed: int, gaps=None, flavor: str = "ueopl",
             two_lines: bool = False) -> LineInstance:
    """Explicit-table line instances.

    Single-line mode lays one line of `length` vertices starting at 0 with
    configurable potential gaps; two-line mode adds a second line whose
    potentials overlap the first, planting UV3/UFV1 material.  A line has
    at least 2 vertices: a lone vertex 0 would be its own end.
    """
    if length < 2:
        raise ValueError(f"line length must be at least 2, got {length}")
    rng = _rng(seed)
    total = length + (length if two_lines else 0) + 1
    n = max(1, (total - 1).bit_length() + (1 if two_lines else 0))
    if gaps is None:
        gaps = [rng.choice([1, 1, 2, 3]) for _ in range(length - 1)]
    ids = list(range(1, 1 << n))
    rng.shuffle(ids)
    verts = [0] + ids[: length - 1]
    s_table, p_table, v_table = {}, {}, {}
    pot = 0
    v_table[verts[0]] = 0
    for a, b, g in zip(verts, verts[1:], gaps):
        s_table[a] = b
        p_table[b] = a
        pot += g
        v_table[b] = pot
    if two_lines:
        rest = [x for x in ids[length - 1:]]
        second = rest[:length]
        pot2 = rng.randrange(1, max(2, pot))
        v_table[second[0]] = pot2
        for a, b in zip(second, second[1:]):
            s_table[a] = b
            p_table[b] = a
            pot2 += rng.choice([1, 2])
            v_table[b] = pot2
    # Flavors with an end kind get P; an unknown flavor reaches LineInstance's check.
    two_way = flavor in LINE_KINDS and LINE_KINDS[flavor].end is not None
    return line_from_tables(n, s_table, p_table if two_way else None, v_table, flavor=flavor)
