"""Instance builders and checks that only the tests use."""

import random
from fractions import Fraction

from potline.problems import LineInstance, line_from_tables
from potline.rational import Mat
from potline.solvers import eps_schedule


def a_alpha(m: Mat, alpha) -> Mat:
    """The cone A_alpha: columns -M_i for i in alpha, e_i otherwise."""
    d = len(m)
    return [[-m[r][i] if i in alpha else Fraction(r == i) for i in range(d)] for r in range(d)]


def gen_normalized_line(exponent: int, seed: int, two_lines: bool = False) -> LineInstance:
    """A UniqueEOPL instance that is already normalized: one line of
    length exactly 2^exponent with V(x) equal to the position, so U1 holds
    iff V = 2^exponent - 1.  Vertex labels are a seeded permutation with
    the start at 0.  Two-line mode adds a second, shorter +1 line at
    overlapping potentials."""
    rng = random.Random(seed)
    length = 1 << exponent
    n = exponent if not two_lines else exponent + 1
    while (1 << n) < (2 * length if two_lines else length):
        n += 1
    ids = list(range(1, 1 << n))
    rng.shuffle(ids)
    verts = [0] + ids[: length - 1]
    s_table, p_table, v_table = {}, {}, {}
    for pos, v in enumerate(verts):
        v_table[v] = pos
        if pos + 1 < length:
            s_table[v] = verts[pos + 1]
            p_table[verts[pos + 1]] = v
    # Ends point at 0^n (which does not point back), as the tail rule of
    # the normalization produces; this keeps line ends proper vertices.
    s_table[verts[-1]] = 0
    if two_lines:
        second = ids[length - 1: 2 * length - 1]
        base = rng.randrange(1, length // 2 + 1)
        span = min(len(second), length - base)
        for k in range(span):
            v_table[second[k]] = base + k
            if k + 1 < span:
                s_table[second[k]] = second[k + 1]
                p_table[second[k + 1]] = second[k]
        if span:
            s_table[second[span - 1]] = 0
    return line_from_tables(n, s_table, p_table, v_table, flavor="ueopl", m_pot=exponent)


def check_schedule(p: int, d: int, eps: Fraction) -> bool:
    """Exact check of sum_{i<k} p*eps_i <= eps_k^p for every k <= d."""
    es = eps_schedule(p, d, eps)
    for k in range(1, d + 1):
        lhs = sum((p * es[i - 1] for i in range(1, k)), Fraction(0))
        if lhs > es[k - 1] ** p:
            return False
    return True
