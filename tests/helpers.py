"""Instance builders and checks that only the tests use."""

import random
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from potline.pivoting import Vertex, principal_minor
from potline.problems import (
    DOWN,
    UP,
    ZERO,
    Certificate,
    LcpInstance,
    LineInstance,
    OpdcInstance,
    cert,
    line_from_tables,
    verify,
)
from potline.rational import Mat, Vec, determinant
from potline.solvers import RunStats, eps_schedule, lemke

# The stages from a P-LCP to a normalized UniqueEOPL line, for `cli.compose`.
FULL_CHAIN = ("plcp", "uso", "opdc", "ufeopl", "plus1", "ueopl", "normalized")


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count the calls of `owner.name` (a module's function or a class's
    method) while `monkeypatch` holds it: the one entry of the returned
    list is the count, which a caller may reset."""
    fn = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def a_alpha(m: Mat, alpha) -> Mat:
    """The cone A_alpha: columns -M_i for i in alpha, e_i otherwise."""
    d = len(m)
    return [[-m[r][i] if i in alpha else Fraction(r == i) for i in range(d)] for r in range(d)]


def murty(n: int) -> LcpInstance:
    """Murty's LCP: M lower triangular with 1 on the diagonal and 2 below,
    q = -1.  Lemke takes 2^n - 1 pivots, and the plcp -> eopl line has
    2^n + 1 steps."""
    m = [[1 if i == j else 2 if j < i else 0 for j in range(n)] for i in range(n)]
    return LcpInstance(M=m, q=[-1] * n)


def lemke_code(sys, basis) -> int:
    """The `PlcpLineView` code of a basis, by the layout of the
    `reductions_lcp` docstring: bit i when w_i is nonbasic, bit d + l for
    the duplicate label l."""
    d = sys.d
    u = sum(1 << i for i in range(d) if d + i not in basis)
    dl = sys.duplicate_label(basis)
    return u if dl is None else u | 1 << (d + dl)


class RowVertex(NamedTuple):
    """A Lemke dictionary held by row: `t[i]` is row i over the d + 1
    nonbasic slots, then the right-hand side (`pivoting` module
    docstring)."""

    rows: tuple
    pos: list
    t: list
    det: int

    @property
    def basis(self) -> frozenset:
        return frozenset(self.rows)

    def as_vertex(self) -> Vertex:
        return Vertex(self.rows, self.pos, [list(col) for col in zip(*self.t)], self.det)


def row_pivot(v: RowVertex, r: int, j: int) -> RowVertex:
    """The pivot on row r with x_j entering, rewriting every row."""
    c = v.pos[j]
    pr = v.t[r]
    p, det = pr[c], v.det
    t = []
    for i, row in enumerate(v.t):
        a = row[c]
        if i == r:
            row = row.copy()
            row[c] = det  # the leaving variable's column is D * e_r
        elif a == 0:
            if p != det:  # else the row is unchanged and shared: rows are never written
                row = [x * p // det for x in row]
        else:
            row = [(x * p - a * y) // det for x, y in zip(row, pr)]
            row[c] = -a
        t.append(row)
    pos = v.pos.copy()
    pos[v.rows[r]], pos[j] = c, ~r
    return RowVertex(v.rows[:r] + (j,) + v.rows[r + 1:], pos, t, p)


def row_ratio_step(sys, v: RowVertex, entering: int):
    """(vertex, leaving) across the edge on which `entering` grows, by the
    lex ratio test over whole rows, or None on a ray."""
    c, det, d = v.pos[entering], v.det, sys.d
    best = None
    for i, row in enumerate(v.t):
        a = row[c]
        if a * det <= 0:
            continue
        if best is not None:
            brow = v.t[best]
            b = brow[c]
            x, y = row[-1] * b, brow[-1] * a
            if x == y:
                for k in v.pos[d:2 * d]:
                    if k >= 0:
                        x, y = row[k] * b, brow[k] * a
                    else:  # a basic w': its column is D * e_~k
                        x, y = det * b if ~k == i else 0, det * a if ~k == best else 0
                    if x != y:
                        break
            if x > y:
                continue
        best = i
    if best is None:
        return None
    return row_pivot(v, best, entering), v.rows[best]


def lemke_zs(inst: LcpInstance, stats: RunStats | None = None) -> tuple[Certificate, list]:
    """`solvers.lemke`'s certificate and the z values of its walk: z at the
    start vertex, then z at each vertex that a ratio test inside `lemke`
    stepped to."""
    sys, zs = inst.system, []
    start, step = sys.start_vertex, sys.ratio_step

    def start_vertex():
        v, label = start()
        zs.append(sys.value(v, sys.zvar))
        return v, label

    def ratio_step(v, entering):
        out = step(v, entering)
        if out is not None:
            zs.append(sys.value(out[0], sys.zvar))
        return out

    sys.start_vertex, sys.ratio_step = start_vertex, ratio_step
    try:
        return lemke(inst, stats), zs
    finally:
        del sys.start_vertex, sys.ratio_step


def lemke_rows(inst: LcpInstance, stats: RunStats, path: list | None = None) -> Certificate:
    """Reference for `solvers.lemke`: the same loop over dictionaries held
    by row, each pivot rewriting every row (`row_pivot` and
    `row_ratio_step`, which share no code with `pivoting`'s pivot and
    ratio test).  `path`, when given, collects the dictionaries met."""
    d = inst.d
    if all(qi >= 0 for qi in inst.q):
        return cert("Q1", y=[Fraction(0)] * d)
    sys = inst.system
    path = path if path is not None else []

    def edge_cone(v, entering):
        alpha = sys.support(v.basis)
        if entering < d:
            return alpha | {entering}
        return alpha - {entering - d}

    slack = sys._slack_vertex()
    entering = sys.start_row()
    v = row_pivot(RowVertex(slack.rows, slack.pos, [list(row) for row in zip(*slack.cols)], slack.det),
                  entering, sys.zvar)
    path.append(v)
    zs = [sys.value(v.as_vertex(), sys.zvar)]
    while True:
        step = row_ratio_step(sys, v, entering)
        stats.pivots += 1
        if step is None:
            alpha = edge_cone(v, entering)
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=alpha)
            ray = sys.direction(v.as_vertex(), entering)
            c = cert("PV2", x=[ray.get(i, Fraction(0)) for i in range(d)])
            if not verify(inst, c):
                raise RuntimeError("secondary ray gave no PV2 certificate")
            return c
        prev, (v, leaving) = v, step
        path.append(v)
        zs.append(sys.value(v.as_vertex(), sys.zvar))
        if zs[-1] > zs[-2]:
            alpha = edge_cone(prev, entering)
            if principal_minor(inst.M, alpha) <= 0:
                return cert("PV1", alpha=alpha)
            raise RuntimeError("z increased across a cone with a positive minor")
        if sys.zvar not in v.basis:
            return cert("Q1", y=sys.numeric_point(v.as_vertex())[0])
        entering = leaving + d if leaving < d else leaving - d


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


def pebbling_index(config):
    """Reference for `PebblingView.index_of`, by structural recursion on the
    highest pebble: the move count of a strategy state, or None."""
    placed = {i + 1: entry[1] for i, entry in enumerate(config) if entry is not None}
    return _pebbling_index(len(config), 0, placed)


def _pebbling_index(n, base, placed):
    if not placed:
        return 0
    if n == 1:
        pos = placed.get(1)
        if pos == base + 1 and len(placed) == 1:
            return 1
        return None
    t1 = (3 ** (n - 1) - 1) // 2
    half = 1 << (n - 1)
    pn = placed.get(n)
    sub = {k: v for k, v in placed.items() if k != n}
    if pn is None:
        if any(v >= base + half for v in sub.values()):
            return None
        return _pebbling_index(n - 1, base, sub)
    if pn != base + half:
        return None
    if not sub:
        return 2 * t1 + 1
    if all(v < base + half for v in sub.values()):
        ts = _pebbling_index(n - 1, base, sub)
        return None if ts is None else t1 + 1 + (t1 - ts)
    if all(v > base + half for v in sub.values()):
        ts = _pebbling_index(n - 1, base + half, sub)
        return None if ts is None else 2 * t1 + 1 + ts
    return None


def pebbling_move(n, t, base=0):
    """Reference for `PebblingView.move` with n pebbles, by recursion on
    the highest pebble."""
    if n == 1:
        return ("place", 1, base + 1)
    t1 = (3 ** (n - 1) - 1) // 2
    half = 1 << (n - 1)
    if t < t1:
        return pebbling_move(n - 1, t, base)
    if t == t1:
        return ("place", n, base + half)
    if t < 2 * t1 + 1:
        op, peb, pos = pebbling_move(n - 1, t1 - 1 - (t - (t1 + 1)), base)
        return ("remove" if op == "place" else "place", peb, pos)
    return pebbling_move(n - 1, t - (2 * t1 + 1), base + half)


def check_schedule(p: int, d: int, eps: Fraction) -> bool:
    """Exact check of sum_{i<k} p*eps_i <= eps_k^p for every k <= d."""
    es = eps_schedule(p, d, eps)
    for k in range(1, d + 1):
        lhs = sum((p * es[i - 1] for i in range(1, k)), Fraction(0))
        if lhs > es[k - 1] ** p:
            return False
    return True


def affine_ref(m: Mat, x: Vec, q: Vec | None = None) -> Vec:
    """M x + q (M x when q is None), summed term by term in Fraction."""
    d = len(x)
    return [sum((m[i][j] * x[j] for j in range(d)), Fraction(0) if q is None else q[i])
            for i in range(len(m))]


def verify_lcp_ref(inst: LcpInstance, c: Certificate) -> bool:
    """The Q1, PV1 and PV2 checks of an LCP certificate; Q1 and PV2 sum
    their products term by term in Fraction."""
    d = inst.d
    if c.kind == "Q1":
        y = [Fraction(v) for v in c.y]
        if len(y) != d or any(v < 0 for v in y):
            return False
        w = affine_ref(inst.M, y, inst.q)
        return all(v >= 0 for v in w) and all(a * b == 0 for a, b in zip(y, w))
    if c.kind == "PV1":
        alpha = sorted(set(c.alpha))
        if not alpha or any(not 0 <= i < d for i in alpha):
            return False
        return determinant([[inst.M[i][j] for j in alpha] for i in alpha]) <= 0
    if c.kind == "PV2":
        x = [Fraction(v) for v in c.x]
        if len(x) != d or not any(x):
            return False
        mx = affine_ref(inst.M, x)
        return all(a * b <= 0 for a, b in zip(x, mx))
    raise ValueError(c.kind)


def potential_ref(view, u: int) -> int:
    """Reference for `PlcpLineView.potential`: Horner's rule over all d + 1
    digits floor(Delta^2 * (Delta - z_k)), clamped to [0, 2 Delta^3], with
    Delta worked out afresh from the instance's I_max."""
    if u == 0:
        return 0
    v = view.vertex_of(u)
    if v is None:
        return 0
    d = view.d
    delta = factorial(2 * d) * view.src.form.i_max ** (2 * d + 1) + 1
    d2, d3 = delta**2, delta**3
    radix = 2 * d3 + 1
    zs, det = view.sys.z_row(v)
    zs[0] *= view.scale
    val = 0
    for x in zs:
        digit = (d3 * det - d2 * x) // det
        val = val * radix + min(max(digit, 0), radix - 1)
    return val


def verify_opdc_ref(inst: OpdcInstance, c: Certificate) -> bool:
    """The OPDC certificate checks, one direction D_j(p) at a time."""
    D = inst.D
    if c.kind == "O1":
        p = inst.check_point(c.p)
        return all(D(i, p) == ZERO for i in range(inst.d))
    if c.kind == "OV1":
        lvl, p, q = c.level, inst.check_point(c.p), inst.check_point(c.q)
        if not (1 <= lvl <= inst.d) or p == q or p[lvl:] != q[lvl:]:
            return False
        return all(D(j, p) == ZERO and D(j, q) == ZERO for j in range(lvl))
    if c.kind == "OV2":
        lvl, p, q = c.level, inst.check_point(c.p), inst.check_point(c.q)
        if not (1 <= lvl <= inst.d) or p[lvl:] != q[lvl:]:
            return False
        i = lvl - 1
        if p[i] != q[i] + 1:
            return False
        if not all(D(j, p) == ZERO and D(j, q) == ZERO for j in range(i)):
            return False
        return D(i, p) == DOWN and D(i, q) == UP
    if c.kind == "OV3":
        lvl, p = c.level, inst.check_point(c.p)
        if not (1 <= lvl <= inst.d):
            return False
        i = lvl - 1
        if not all(D(j, p) == ZERO for j in range(i)):
            return False
        return (p[i] == 0 and D(i, p) == DOWN) or (p[i] == inst.widths[i] and D(i, p) == UP)
    raise ValueError(c.kind)


def fibonacci_contraction(bits: int):
    """f(x) = x/2 + x*/2 with kappa = (bits,), and x*.  x* = F_{k-1} / F_k
    for the largest odd Fibonacci number F_k below 2^bits, so its
    continued fraction has k - 1 terms, the most for its size."""
    from potline.circuits import affine_circuit
    from potline.problems import ContractionInstance

    fib = [0, 1]
    while fib[-1] < 1 << bits:
        fib.append(fib[-1] + fib[-2])
    k = max(i for i, q in enumerate(fib) if q < 1 << bits and q % 2)
    x_star = Fraction(fib[k - 1], fib[k])
    circ = affine_circuit([[Fraction(1, 2)]], [x_star / 2])
    return ContractionInstance(d=1, c=Fraction(1, 2), p=2, circuit=circ, kappa=(bits,)), x_star
