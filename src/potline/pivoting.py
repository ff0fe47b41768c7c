"""Exact pivoting on the Lemke polyhedron w = My + q + z*1.

Variables are indexed 0..2d: y_i -> i, w_i -> d+i, z -> 2d.  The defining
system is M y - w + z*1 = -q(eps), where the right-hand side is perturbed
symbolically to q(eps) = q + (eps^1, ..., eps^d).  The perturbation makes
every basic solution nondegenerate and every ratio test unique.  A value
is the vector of its eps coefficients, ordered lexicographically; the
numeric value is the constant term.

A vertex is one fraction-free integer tableau (Edmonds 1967; Bareiss
1968; the integer pivoting of Avis's lrs).  Scale each row of
[M | -I | 1 | -q | -I] to integers by the lcm of its denominators, call
the result A, and let B be the columns of A of the basic variables in row
order.  The tableau holds D = det(B) and T = D * B^-1 * A: the basic
variable of row i has the value T[i][2d+1:] / D and falls by T[i][j] / D
per unit of a growing nonbasic x_j.  A pivot on row r and column j, with
p = T[r][j], replaces every other row i by
(T[i][k] * p - T[i][j] * T[r][k]) / D, keeps row r, and sets D = p; the
division is exact because every entry is a minor of A.  Fractions are
built only where a number is read.

The lex ratio test runs over the rows whose pivot entry has the sign of D,
and compares their [-q | -I] blocks cross-multiplied by the pivot entries
(the products of two entries of one sign are positive).

The tableaux also answer cone solves: -A_alpha (A_alpha has columns -M_i
for i in alpha, e_i elsewhere) is the basis matrix of alpha's
complementary basis, whose basic values are A_alpha^-1 q(eps).

Path edges are oriented locally: an almost-complementary edge whose cone
is A_alpha points toward decreasing z iff det(M_alpha_alpha) > 0.  This is the
determinant-sign form of Todd's orientation for complementary pivot
paths; it gives every duplicate-label vertex exactly one incoming and one
outgoing edge, and it orients the primary ray toward the start vertex.
At a vertex with duplicate label l, the sign that decides the forward
edge, det(A_alpha) with column l set to all ones, is (-1)^(d-1) times
det(B) with B's columns in label order, i.e. (-1)^(d-1) times the sign of
D times the sign of the row -> label permutation.  At a vertex with z
nonbasic the same reading gives the sign of det(M_alpha_alpha): the
columns -e_i of the labels outside alpha contribute (-1)^(d-|alpha|).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .rational import Mat, Vec, determinant


def principal_minor(m: Mat, alpha) -> Fraction:
    idx = sorted(alpha)
    return determinant([[m[i][j] for j in idx] for i in idx])


def _lead(xs) -> int:
    """First nonzero entry, or 0."""
    for x in xs:
        if x:
            return x
    return 0


def _perm_sign(p) -> int:
    sign, seen = 1, [False] * len(p)
    for i in range(len(p)):
        j, n = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        if n and n % 2 == 0:
            sign = -sign
    return sign


class Vertex:
    """A basis with its tableau: `rows[i]` is the basic variable of row i,
    `t` the integer rows T and `det` the determinant D (module docstring)."""

    __slots__ = ("rows", "basis", "t", "det")

    def __init__(self, rows: tuple, t: list[list[int]], det: int):
        self.rows = rows
        self.basis = frozenset(rows)
        self.t = t
        self.det = det


class LemkeSystem:
    def __init__(self, m: Mat, q: Vec):
        self.m = m
        self.q = q
        self.d = len(q)
        self.zvar = 2 * self.d
        self.rhs = 2 * self.d + 1  # first column of the [-q | -I] block
        self._slack = None

    # -- tableaux ------------------------------------------------------------
    def _slack_vertex(self) -> Vertex:
        """The basis of all w (row i holds w_i), built on first use."""
        if self._slack is None:
            d = self.d
            a = []
            for r in range(d):
                unit = [Fraction(-(k == r)) for k in range(d)]
                src = self.m[r] + unit + [Fraction(1), -self.q[r]] + unit
                s = lcm(*[f.denominator for f in src])
                a.append([f.numerator * (s // f.denominator) for f in src])
            # B = diag(-s_r), so T = D * B^-1 * A scales row r by D / -s_r.
            det = prod(row[d + r] for r, row in enumerate(a))
            t = [[det // row[d + r] * x for x in row] for r, row in enumerate(a)]
            self._slack = Vertex(tuple(range(d, 2 * d)), t, det)
        return self._slack

    def _pivot(self, v: Vertex, r: int, j: int) -> Vertex:
        pr = v.t[r]
        p, det = pr[j], v.det
        t = []
        for i, row in enumerate(v.t):
            a = row[j]
            if i == r:
                t.append(row)
            elif a == 0:
                t.append([x * p // det for x in row])
            else:
                t.append([(x * p - a * y) // det for x, y in zip(row, pr)])
        return Vertex(v.rows[:r] + (j,) + v.rows[r + 1:], t, p)

    def vertex_at(self, basis) -> Vertex | None:
        """The tableau of `basis`, at most d pivots from the slack one, or
        None when the basis matrix is singular."""
        v = self._slack_vertex()
        for j in sorted(basis - v.basis):
            r = next((i for i, var in enumerate(v.rows) if var not in basis and v.t[i][j]), None)
            if r is None:
                return None  # column j lies in the span of the basic ones
            v = self._pivot(v, r, j)
        return v

    def cone_vertex(self, alpha) -> Vertex | None:
        """The tableau of cone alpha's complementary basis (y_i for i in
        alpha, w_i elsewhere, z nonbasic), or None when A_alpha is singular.
        Its basic values are A_alpha^-1 q(eps): the basis matrix is
        -A_alpha and the right-hand side -q(eps)."""
        return self.vertex_at(frozenset(i if i in alpha else self.d + i for i in range(self.d)))

    # -- reading a vertex ----------------------------------------------------
    def feasible(self, v: Vertex) -> bool:
        """Every basic value is lexicographically nonnegative."""
        return all(_lead(row[self.rhs:]) * v.det >= 0 for row in v.t)

    def lex_negative(self, v: Vertex) -> list[int]:
        """The basic variables whose values are lexicographically negative."""
        return [var for var, row in zip(v.rows, v.t) if _lead(row[self.rhs:]) * v.det < 0]

    def value(self, v: Vertex, var: int) -> Fraction:
        """Numeric value of `var`; zero when it is nonbasic."""
        if var not in v.basis:
            return Fraction(0)
        return Fraction(v.t[v.rows.index(var)][self.rhs], v.det)

    def numeric_point(self, v: Vertex):
        d = self.d
        y = [Fraction(0)] * d
        w = [Fraction(0)] * d
        z = Fraction(0)
        for var, row in zip(v.rows, v.t):
            x = Fraction(row[self.rhs], v.det)
            if var < d:
                y[var] = x
            elif var < 2 * d:
                w[var - d] = x
            else:
                z = x
        return y, w, z

    def z_row(self, v: Vertex) -> tuple[list[int], int]:
        """(zs, D) with zs[k] / D the k-th eps coefficient of z; all zero
        when z is nonbasic."""
        if self.zvar not in v.basis:
            return [0] * (self.d + 1), 1
        return v.t[v.rows.index(self.zvar)][self.rhs:], v.det

    def duplicate_label(self, basis) -> int | None:
        for i in range(self.d):
            if i not in basis and self.d + i not in basis:
                return i
        return None

    def support(self, basis) -> frozenset:
        return frozenset(i for i in range(self.d) if i in basis)

    # -- pivoting ------------------------------------------------------------
    def direction(self, v: Vertex, entering: int) -> dict:
        """Edge direction when `entering` grows: numeric deltas per basic
        variable plus the entering variable itself at +1."""
        eta = {var: Fraction(-row[entering], v.det) for var, row in zip(v.rows, v.t)}
        eta[entering] = Fraction(1)
        return eta

    def dz_sign(self, v: Vertex, entering: int) -> int:
        """Sign of the change of z along the edge on which `entering` grows.
        From a lex-feasible vertex every step is lexicographically positive,
        so this is also the sign of z(next vertex) - z(v)."""
        if entering == self.zvar:
            return 1
        if self.zvar not in v.basis:
            return 0
        x = -v.t[v.rows.index(self.zvar)][entering] * v.det
        return (x > 0) - (x < 0)

    def ratio_step(self, v: Vertex, entering: int):
        """Move along the edge opened by `entering` to the adjacent vertex.

        Returns (vertex, leaving), or None when the edge is a ray.  The lex
        ratio test makes `leaving` unique: two rows with equal ratios would
        make B^-1 singular.
        """
        c = self.rhs
        best = None
        for i, row in enumerate(v.t):
            a = row[entering]
            if a * v.det <= 0:
                continue  # this basic variable does not fall
            if best is not None:
                # row[c:] / a < brow[c:] / b, cross-multiplied by a * b > 0
                brow, b = v.t[best], v.t[best][entering]
                k = c
                while row[k] * b == brow[k] * a:
                    k += 1
                if row[k] * b > brow[k] * a:
                    continue
            best = i
        if best is None:
            return None
        return self._pivot(v, best, entering), v.rows[best]

    def edge_point(self, v: Vertex, eta: dict, t: Fraction):
        """Numeric point v + t * eta."""
        d = self.d
        y, w, z = self.numeric_point(v)
        for var, dv in eta.items():
            if var < d:
                y[var] += t * dv
            elif var < 2 * d:
                w[var - d] += t * dv
            else:
                z += t * dv
        return y, w, z

    # -- Lemke start ----------------------------------------------------------
    def start_vertex(self):
        """Vertex at (y, w, z) = (0, q + z0*1, z0) and the label whose w
        left the basis."""
        # z replaces the w of the lex-min row (q_i, e_i) of q(eps): the
        # smallest q_i, ties going to the larger i.
        i_star = min(range(self.d), key=lambda i: (self.q[i], -i))
        v = self._pivot(self._slack_vertex(), i_star, self.zvar)
        if not self.feasible(v):
            raise RuntimeError("Lemke start vertex is infeasible")
        return v, i_star

    # -- Todd orientation ------------------------------------------------------
    def _label_order_sign(self, v: Vertex, dup: int | None = None) -> int:
        """Sign of det(B) with B's columns in label order; z's column
        stands for the duplicate label `dup`."""
        labels = [dup if var == self.zvar else var % self.d for var in v.rows]
        return _perm_sign(labels) if v.det > 0 else -_perm_sign(labels)

    def cone_sign(self, v: Vertex) -> int:
        """Sign of det(M_alpha_alpha), alpha = support(v.basis), at a vertex
        with z nonbasic (nonzero: its basis is nonsingular)."""
        return self._label_order_sign(v) * (-1) ** (self.d - len(self.support(v.basis)))

    def forward_entering(self, v: Vertex) -> int:
        """At a duplicate-label vertex, the entering variable (y_l or w_l)
        whose edge is the path successor."""
        d = self.d
        l = self.duplicate_label(v.basis)
        if l is None:
            raise ValueError("vertex has no duplicate label")
        # sign of det(A_alpha) with column l set to all ones
        positive = self._label_order_sign(v, l) * (-1) ** (d - 1) > 0
        if positive == (len(self.support(v.basis)) % 2 == 0):
            return l  # enter y_l
        return d + l  # enter w_l

    def backward_entering(self, v: Vertex) -> int:
        l = self.duplicate_label(v.basis)
        return self.d + l if self.forward_entering(v) == l else l
