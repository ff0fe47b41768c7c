"""Exact pivoting on the Lemke polyhedron w = My + q + z*1.

Variables are indexed 0..2d: y_i -> i, w_i -> d+i, z -> 2d.  The defining
system is M y - w + z*1 = -q(eps), where the right-hand side is perturbed
symbolically to q(eps) = q + (eps^1, ..., eps^d).  The perturbation makes
every basic solution nondegenerate and every ratio test unique.  A value
is the vector of its eps coefficients, ordered lexicographically; the
numeric value is the constant term.

A vertex is one fraction-free integer dictionary (Edmonds 1967; Bareiss
1968; the integer pivoting of Avis's lrs).  Row r of the system is scaled
to integers by s_r, the lcm of its denominators (`IntForm`), and w_r is
replaced by w'_r = s_r * w_r, so that the slack columns stay -I:
A = [S M | -I | S 1 | -S q] over (y, w', z), with S = diag(s).  Let B be
the columns of A of the basic variables in row order, D = det(B) and
T = D * B^-1 * A.  The basic variable of row i has the value
T[i][rhs] / D and falls by T[i][x] / D per unit of a growing nonbasic x.

Only the d + 1 nonbasic columns of T and the right-hand side are stored,
by column: a basic variable's column is D in its own row and 0
elsewhere.  `Vertex.pos` maps a nonbasic variable to its slot and a basic
one to ~row.  A pivot on row r and entering x_j, with p = T[r][j], turns
every other column's entry in row i into (T[i][k] * p - T[i][j] * T[r][k])
/ D, keeps row r, and sets D = p; the division is exact because every
entry is a minor of A (`_replay`, the one pivot rule).  j's slot then
holds the column of the leaving variable: the old D in row r and -T[i][j]
in every other row i.  Fractions are built only where a number is read.

A pivot computes only the right-hand side and the leaving variable's
column (the product form of the inverse; Dantzig and Orchard-Hays 1954).
Every other column is replayed from the vertex it was pivoted from when
it is first read, and kept.  A walk that reads few columns, such as a
ratio test whose right-hand sides do not tie or a cone solve, never
computes the rest.  A vertex has at most d unreplayed pivots behind it:
before a pivot from a vertex with d of them, all of that vertex's columns
are computed, and it lets go of the vertex it came from.

At the all-w basis B = -I, so D = +-1.  At any vertex D is det(B0) times
the s_r of the rows whose w has left the basis, where B0 is the basis of
the unscaled [M | -I | 1 | -q]: the scale of a row whose w is still basic
stays out of D (with the slack columns -s_r e_r it would be in every
entry).

The eps part of the right-hand side, -s_k * eps^k in row k, is s_k times
the w'_k column, so it is not stored: the eps^k coefficient of row i's
value is s_k * T[i][w'_k] / D.  A row's lex vector is T[i][rhs] followed
by its w' entries.  The factors s_k > 0 scale one component of every lex
vector alike, so comparing lex vectors without them gives the same order,
and the values that the read-outs return (`value`, `numeric_point`,
`direction`, `edge_point`, `z_row`) convert w' back to w through s.

The lex ratio test (`ratio_step`) runs over the rows whose pivot entry
has the sign of D, and compares their lex vectors cross-multiplied by the
pivot entries (the products of two entries of one sign are positive).
It reads a w' column only where two right-hand sides tie.

The dictionaries also answer cone solves: -A_alpha (A_alpha has columns
-M_i for i in alpha, e_i elsewhere) is the basis matrix of alpha's
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
Scaling rows and w columns by positive s_r changes det(B) by a positive
factor, so these signs read off D are those of the unscaled system.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rational import Mat, Vec, determinant, int_row


def principal_minor(m: Mat, alpha) -> Fraction:
    idx = sorted(alpha)
    return determinant([[m[i][j] for j in idx] for i in idx])


def _perm_sign(p) -> int:
    """Sign of the permutation p of 0..n-1 (p is consumed): one sign
    flip per swap that puts an entry in place."""
    sign = 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], j
            sign = -sign
    return sign


class IntForm:
    """(M, q) over the integers: `rows[r]` is row r of [M | q] times `s[r]`
    (`rational.int_row`), `scale` the lcm of all denominators and `i_max`
    the largest |entry| of (M, q) times `scale` (0 when d = 0)."""

    __slots__ = ("s", "rows", "scale", "i_max")

    def __init__(self, m: Mat, q: Vec):
        scaled = [int_row(mr + [qr]) for mr, qr in zip(m, q)]
        self.s, self.rows = [s for s, _ in scaled], [row for _, row in scaled]
        self.scale = lcm(*self.s)
        self.i_max = max((max(map(abs, row)) * (self.scale // s) for s, row in scaled), default=0)

    def sums(self, xt: Vec) -> list[int]:
        """Row r of M x + t q at xt = (x, t) times s_r and the lcm of xt's
        denominators (so of the row's sign), summed in int where xt != 0."""
        xs = [(j, v) for j, v in enumerate(int_row(xt)[1]) if v]
        return [sum(row[j] * v for j, v in xs) for row in self.rows]


def _replay(col: list[int], r: int, e: list[int], p: int, det: int) -> list[int]:
    """A column after the pivot on row r with entering column e, pivot
    entry p = e[r] and old D = det (module docstring)."""
    x = col[r]
    if x:
        col = [(y * p - a * x) // det for y, a in zip(col, e)]
        col[r] = x
    elif p != det:  # else the column is unchanged and shared: columns are never written
        col = [y * p // det for y in col]
    return col


class Vertex:
    """A basis with its dictionary: `rows[i]` is the basic variable of row
    i, `pos[x]` the slot of a nonbasic variable x or ~row of a basic one,
    `cols[k]` the integer column of slot k (the d + 1 nonbasic slots, then
    the right-hand side), None until `column(k)` first reads it, and `det`
    the determinant D (module docstring).  `back` is (the vertex this one
    was pivoted from, the pivot row, the entering column there), from
    which a missing column is replayed, and `lag` bounds the number of
    such pivots behind it (at most d).  `fwd` holds `forward_entering` once it has been
    asked for (a pure function of rows and det)."""

    __slots__ = ("rows", "basis", "pos", "cols", "det", "back", "lag", "fwd")

    def __init__(self, rows: tuple, pos: list[int], cols: list, det: int, back: tuple | None = None):
        self.rows = rows
        self.basis = frozenset(rows)
        self.pos = pos
        self.cols = cols
        self.det = det
        self.back = back
        self.lag = 0 if back is None else back[0].lag + 1
        self.fwd = None

    def column(self, k: int) -> list[int]:
        """Slot k's column, replayed from `back` on first read."""
        col = self.cols[k]
        if col is None:
            v, r, e = self.back
            col = self.cols[k] = _replay(v.column(k), r, e, self.det, v.det)
        return col


class LemkeSystem:
    def __init__(self, m: Mat, q: Vec):
        self.q = q
        self.d = len(q)
        self.zvar = 2 * self.d
        self.rhs = self.d + 1  # the slot of -s * q
        self.form = IntForm(m, q)
        self._slack = None

    # -- dictionaries ----------------------------------------------------------
    def _slack_vertex(self) -> Vertex:
        """The basis of all w (row i holds w'_i), built on first use."""
        if self._slack is None:
            d, f = self.d, self.form
            # B = -I and D = (-1)^d, so T = D * B^-1 * A = (-1)^(d+1) * A over
            # the slots y_0..y_(d-1), z and the right-hand side.
            sign = 1 if d % 2 else -1
            cols = [[row[k] * sign for row in f.rows] for k in range(d)]
            cols += [[s * sign for s in f.s], [-row[-1] * sign for row in f.rows]]
            pos = list(range(d)) + [~r for r in range(d)] + [d]
            self._slack = Vertex(tuple(range(d, 2 * d)), pos, cols, -sign)
        return self._slack

    def _pivot(self, v: Vertex, r: int, j: int) -> Vertex:
        """The vertex one pivot from v, on row r with x_j entering: the
        right-hand side and the leaving variable's column are computed
        here, every other column on first read.  A v with d pivots behind
        it computes all of its columns first."""
        if v.lag == self.d:
            for k in range(self.rhs):
                v.column(k)
            v.back, v.lag = None, 0
        c = v.pos[j]
        e = v.column(c)
        cols = [None] * (self.d + 2)
        cols[c] = [-a for a in e]
        cols[c][r] = v.det  # the leaving variable's column was D * e_r
        cols[self.rhs] = _replay(v.cols[self.rhs], r, e, e[r], v.det)
        pos = v.pos.copy()
        pos[v.rows[r]], pos[j] = c, ~r
        return Vertex(v.rows[:r] + (j,) + v.rows[r + 1:], pos, cols, e[r], (v, r, e))

    def vertex_at(self, basis) -> Vertex | None:
        """The dictionary of `basis`, at most d pivots from the slack one,
        or None when the basis matrix is singular."""
        v = self._slack_vertex()
        for j in sorted(basis - v.basis):
            col = v.column(v.pos[j])
            r = next((i for i, var in enumerate(v.rows) if var not in basis and col[i]), None)
            if r is None:
                return None  # column j lies in the span of the basic ones
            v = self._pivot(v, r, j)
        return v

    def cone_vertex(self, alpha) -> Vertex | None:
        """The dictionary of cone alpha's complementary basis (y_i for i in
        alpha, w_i elsewhere, z nonbasic), or None when A_alpha is singular.
        Its basic values are A_alpha^-1 q(eps): the basis matrix is
        -A_alpha and the right-hand side -q(eps)."""
        return self.vertex_at(frozenset(i if i in alpha else self.d + i for i in range(self.d)))

    # -- reading a vertex ----------------------------------------------------
    def _units(self, var: int) -> int:
        """Units of the stored variable per unit of `var`: s_k for w_k."""
        return self.form.s[var - self.d] if self.d <= var < self.zvar else 1

    def _lex_lead(self, v: Vertex, i: int) -> int:
        """First nonzero entry of row i's lex vector, or 0: the right-hand
        side, then the w' entries (D for the row's own basic w')."""
        x = v.cols[self.rhs][i]
        if x:
            return x
        for k in v.pos[self.d:self.zvar]:
            x = v.column(k)[i] if k >= 0 else v.det if ~k == i else 0
            if x:
                return x
        return 0

    def feasible(self, v: Vertex) -> bool:
        """Every basic value is lexicographically nonnegative."""
        return all(self._lex_lead(v, i) * v.det >= 0 for i in range(self.d))

    def lex_negative(self, v: Vertex) -> list[int]:
        """The basic variables whose values are lexicographically negative."""
        return [var for i, var in enumerate(v.rows) if self._lex_lead(v, i) * v.det < 0]

    def value(self, v: Vertex, var: int) -> Fraction:
        """Numeric value of `var`; zero when it is nonbasic."""
        c = v.pos[var]
        if c >= 0:
            return Fraction(0)
        return Fraction(v.cols[self.rhs][~c], v.det * self._units(var))

    def numeric_point(self, v: Vertex):
        """(y, w, z), read from the right-hand side."""
        d = self.d
        y = [Fraction(0)] * d
        w = [Fraction(0)] * d
        z = Fraction(0)
        for var, x in zip(v.rows, v.cols[self.rhs]):
            if var < d:
                y[var] = Fraction(x, v.det)
            elif var < 2 * d:
                w[var - d] = Fraction(x, v.det * self.form.s[var - d])
            else:
                z = Fraction(x, v.det)
        return y, w, z

    def z_row(self, v: Vertex) -> tuple[list[int], int]:
        """(zs, D) with zs[k] / D the k-th eps coefficient of z; all zero
        when z is nonbasic.  zs[k] is s_k times z's w'_k entry, 0 for a
        basic w'_k."""
        c = v.pos[self.zvar]
        if c >= 0:
            return [0] * (self.d + 1), 1
        ws = [v.column(k)[~c] if k >= 0 else 0 for k in v.pos[self.d:self.zvar]]
        if self.form.scale != 1:
            ws = [s * x for s, x in zip(self.form.s, ws)]
        return [v.cols[self.rhs][~c]] + ws, v.det

    def duplicate_label(self, basis) -> int | None:
        for i in range(self.d):
            if i not in basis and self.d + i not in basis:
                return i
        return None

    def support(self, basis) -> frozenset:
        return frozenset(basis).intersection(range(self.d))

    # -- pivoting ------------------------------------------------------------
    def direction(self, v: Vertex, entering: int) -> dict:
        """Edge direction when `entering` grows: numeric deltas per basic
        variable plus the entering variable itself at +1."""
        s = self._units(entering)
        col = v.column(v.pos[entering])
        eta = {var: Fraction(-a * s, v.det * self._units(var)) for var, a in zip(v.rows, col)}
        eta[entering] = Fraction(1)
        return eta

    def dz_sign(self, v: Vertex, entering: int) -> int:
        """Sign of the change of z along the edge on which `entering` grows.
        From a lex-feasible vertex every step is lexicographically positive,
        so this is also the sign of z(next vertex) - z(v)."""
        if entering == self.zvar:
            return 1
        c = v.pos[self.zvar]
        if c >= 0:
            return 0
        x = -v.column(v.pos[entering])[~c] * v.det
        return (x > 0) - (x < 0)

    def ratio_step(self, v: Vertex, entering: int):
        """Move along the edge opened by `entering` to the adjacent vertex.

        Returns (vertex, leaving), or None when the edge is a ray.  The lex
        ratio test makes `leaving` unique: two rows with equal ratios would
        make B^-1 singular.
        """
        col, rhs, det = v.column(v.pos[entering]), v.cols[self.rhs], v.det
        best = None
        for i, a in enumerate(col):
            if a * det <= 0:
                continue  # this basic variable does not fall
            if best is not None:
                # lex(row i) / a < lex(row best) / b, cross-multiplied by
                # a * b > 0; the lex vector is the right-hand side, then the
                # w' entries.
                x, y = rhs[i] * b, rhs[best] * a
                if x == y:
                    for k in v.pos[self.d:self.zvar]:
                        if k >= 0:
                            w = v.column(k)
                            x, y = w[i] * b, w[best] * a
                        else:  # a basic w': its column is D * e_~k
                            x, y = det * b if ~k == i else 0, det * a if ~k == best else 0
                        if x != y:
                            break
                if x > y:
                    continue
            best, b = i, a
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
    def start_row(self) -> int:
        """The row of the slack dictionary (and the label) whose w z
        replaces at the Lemke start: the lex-min row (q_i, e_i) of q(eps),
        so the smallest q_i, ties going to the larger i."""
        return min(range(self.d), key=lambda i: (self.q[i], -i))

    def start_vertex(self):
        """Vertex at (y, w, z) = (0, q + z0*1, z0) and the label whose w
        left the basis.  Raises RuntimeError if it is infeasible."""
        i_star = self.start_row()
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
        if v.fwd is not None:
            return v.fwd
        d = self.d
        l = self.duplicate_label(v.basis)
        if l is None:
            raise ValueError("vertex has no duplicate label")
        # sign of det(A_alpha) with column l set to all ones
        positive = self._label_order_sign(v, l) * (-1) ** (d - 1) > 0
        v.fwd = l if positive == (len(self.support(v.basis)) % 2 == 0) else d + l  # y_l, else w_l
        return v.fwd

    def backward_entering(self, v: Vertex) -> int:
        l = self.duplicate_label(v.basis)
        return self.d + l if self.forward_entering(v) == l else l
