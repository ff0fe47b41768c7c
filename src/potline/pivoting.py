"""Exact pivoting on the Lemke polyhedron w = My + q + z*1.

The right-hand side is perturbed symbolically to q(eps) = q + (eps^1, ...,
eps^d), which makes every basic solution nondegenerate and every ratio
test unique; all coordinates are LexVec values (polynomials in eps ordered
lexicographically).  Numeric answers are read off as the constant terms.

Variables are indexed 0..2d: y_i -> i, w_i -> d+i, z -> 2d.  The defining
system is M y - w + z*1 = -q(eps).

Path edges are oriented locally: an almost-complementary edge whose cone
is A_alpha (columns -M_i for i in alpha, unit columns elsewhere) points
toward decreasing z iff det(M_alpha_alpha) > 0.  This is the
determinant-sign form of Todd's orientation for complementary pivot
paths; it gives every duplicate-label vertex exactly one incoming and one
outgoing edge, and it orients the primary ray toward the start vertex.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import LexVec, Mat, SingularMatrixError, Vec, determinant, solve_linear_multi


def a_alpha(m: Mat, alpha) -> Mat:
    """Columns -M_i for i in alpha, e_i otherwise."""
    d = len(m)
    cols = []
    for i in range(d):
        if i in alpha:
            cols.append([-m[r][i] for r in range(d)])
        else:
            cols.append([Fraction(r == i) for r in range(d)])
    return [[cols[j][r] for j in range(d)] for r in range(d)]


def principal_minor(m: Mat, alpha) -> Fraction:
    idx = sorted(alpha)
    return determinant([[m[i][j] for j in idx] for i in idx])


def det_col_ones(m: Mat, alpha, l: int) -> Fraction:
    """det of A_alpha with column l replaced by the all-ones vector."""
    a = a_alpha(m, alpha)
    for r in range(len(m)):
        a[r][l] = Fraction(1)
    return determinant(a)


class LemkeSystem:
    def __init__(self, m: Mat, q: Vec):
        self.m = m
        self.q = q
        self.d = len(q)
        self.zvar = 2 * self.d

    # -- column of a variable in [M | -I | 1] -------------------------------
    def col(self, var: int) -> Vec:
        d = self.d
        if var < d:
            return [self.m[r][var] for r in range(d)]
        if var < 2 * d:
            return [Fraction(-(r == var - d)) for r in range(d)]
        return [Fraction(1)] * d

    # -- basic solutions -----------------------------------------------------
    def solve_basis(self, basis) -> dict | None:
        """Values of the basic variables as LexVecs, or None when the basis
        matrix is singular.  Nonbasic variables are zero."""
        d = self.d
        bvars = sorted(basis)
        if len(bvars) != d:
            raise ValueError("basis must have d variables")
        a = [[self.col(v)[r] for v in bvars] for r in range(d)]
        # RHS: -q(eps) as d columns [ -q | -I ].
        rhs = [[-self.q[r]] + [Fraction(-(r == j)) for j in range(d)] for r in range(d)]
        try:
            sol = solve_linear_multi(a, rhs)
        except SingularMatrixError:
            return None
        return {v: LexVec(sol[i]) for i, v in enumerate(bvars)}

    def feasible(self, vals: dict) -> bool:
        zero = LexVec.const(0, self.d)
        return all(v >= zero for v in vals.values())

    def numeric_point(self, vals: dict):
        d = self.d
        y = [Fraction(0)] * d
        w = [Fraction(0)] * d
        z = Fraction(0)
        for var, v in vals.items():
            if var < d:
                y[var] = v.numeric
            elif var < 2 * d:
                w[var - d] = v.numeric
            else:
                z = v.numeric
        return y, w, z

    def z_of(self, vals: dict) -> LexVec:
        z = vals.get(self.zvar)
        return z if z is not None else LexVec.const(0, self.d)

    def duplicate_label(self, basis) -> int | None:
        for i in range(self.d):
            if i not in basis and self.d + i not in basis:
                return i
        return None

    def support(self, basis) -> frozenset:
        return frozenset(i for i in range(self.d) if i in basis)

    # -- pivoting ------------------------------------------------------------
    def direction(self, basis, entering: int) -> dict:
        """Edge direction when `entering` grows: numeric deltas per basic
        variable plus the entering variable itself at +1."""
        d = self.d
        bvars = sorted(basis)
        a = [[self.col(v)[r] for v in bvars] for r in range(d)]
        rhs = [[-c] for c in self.col(entering)]
        sol = solve_linear_multi(a, rhs)
        eta = {v: sol[i][0] for i, v in enumerate(bvars)}
        eta[entering] = Fraction(1)
        return eta

    def ratio_step(self, basis, vals: dict, entering: int):
        """Move along the edge opened by `entering` to the adjacent vertex.

        Returns (new_basis, new_vals, leaving, t_star) or None when the
        edge is a ray.  The lex ratio test makes `leaving` unique.
        """
        eta = self.direction(basis, entering)
        best = None
        for v in sorted(basis):
            if eta[v] < 0:
                ratio = vals[v].scale(Fraction(1) / -eta[v])
                if best is None or ratio < best[0]:
                    best = (ratio, v)
        if best is None:
            return None
        t_star, leaving = best
        new_basis = frozenset(set(basis) - {leaving} | {entering})
        new_vals = self.solve_basis(new_basis)
        if new_vals is None:
            raise SingularMatrixError("pivot produced a singular basis")
        return new_basis, new_vals, leaving, t_star

    def edge_point(self, vals: dict, eta: dict, t: Fraction):
        """Numeric point vals + t * eta (constant terms only)."""
        d = self.d
        y, w, z = self.numeric_point(vals)
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
        """Basis and values at (y, w, z) = (0, q + z0*1, z0)."""
        d = self.d
        # Lex-min of q(eps); unique because the eps rows differ.
        rows = [LexVec([self.q[i]] + [Fraction(k == i + 1) for k in range(1, d + 1)]) for i in range(d)]
        i_star = min(range(d), key=lambda i: rows[i])
        basis = frozenset({2 * d} | {d + i for i in range(d) if i != i_star})
        vals = self.solve_basis(basis)
        if vals is None or not self.feasible(vals):
            raise RuntimeError("Lemke start vertex is infeasible")
        return basis, vals, i_star

    # -- Todd orientation ------------------------------------------------------
    def forward_entering(self, basis) -> int | None:
        """At a duplicate-label vertex, the entering variable (y_l or w_l)
        whose edge is the path successor; None when both incident edges
        keep z constant (degenerate cones)."""
        l = self.duplicate_label(basis)
        if l is None:
            raise ValueError("vertex has no duplicate label")
        alpha = self.support(basis)
        dd = det_col_ones(self.m, alpha, l)
        if dd == 0:
            return None
        if (dd > 0) == (len(alpha) % 2 == 0):
            return l  # enter y_l
        return self.d + l  # enter w_l

    def backward_entering(self, basis) -> int | None:
        fwd = self.forward_entering(basis)
        if fwd is None:
            return None
        l = self.duplicate_label(basis)
        return self.d + l if fwd == l else l
