"""Exact rational linear algebra: solves, determinants, norm comparisons.

Verifiers, solvers and map-backs run on `fractions.Fraction`; Lemke
pivoting keeps its own integer tableau (`pivoting`).  Matrices are dense
lists of lists, vectors plain lists.  Determinants and linear solves use Bareiss fraction-free
elimination on an integer-cleared copy, which keeps intermediate bit
growth polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = list[Fraction]
Mat = list[list[Fraction]]


class SingularMatrixError(ValueError):
    """Raised when a solve hits det = 0."""


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def frac_str(x: Fraction) -> str:
    """Serialize as 'num/den' (or plain integer when den = 1)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def mat(rows) -> Mat:
    m = [[frac(x) for x in row] for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def _integer_rows(a: Mat, b: list[Vec]) -> tuple[list[list[int]], list[list[int]]]:
    # Clear denominators row by row; row scaling by a positive constant
    # preserves solution sets of [A | b].
    ai, bi = [], []
    for row, brow in zip(a, b):
        scale = lcm(*[f.denominator for f in row + brow]) if row + brow else 1
        ai.append([int(f * scale) for f in row])
        bi.append([int(f * scale) for f in brow])
    return ai, bi


def determinant(a: Mat) -> Fraction:
    """Exact determinant via Bareiss elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    scale = Fraction(1)
    m = []
    for row in a:
        s = lcm(*[f.denominator for f in row])
        scale *= s
        m.append([int(f * s) for f in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], 1) / scale


def solve_linear(a: Mat, b: Vec) -> Vec:
    """Solve A x = b exactly; raises SingularMatrixError when det(A) = 0."""
    sols = solve_linear_multi(a, [[x] for x in b])
    return [row[0] for row in sols]


def solve_linear_multi(a: Mat, b: list[Vec]) -> list[Vec]:
    """Solve A X = B for a matrix of right-hand sides (rows of B given per
    equation).  Returns X as rows per variable."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("dimension mismatch in solve")
    k_rhs = len(b[0]) if b else 0
    ai, bi = _integer_rows(a, b)
    # Bareiss forward elimination on [A | B].
    m = [ai[i] + bi[i] for i in range(n)]
    width = n + k_rhs
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular")
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    if m[n - 1][n - 1] == 0:
        raise SingularMatrixError("matrix is singular")
    # Back substitution in exact rationals.
    xs: list[list[Fraction]] = [[Fraction(0)] * k_rhs for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for c in range(k_rhs):
            s = Fraction(m[i][n + c])
            for j in range(i + 1, n):
                s -= m[i][j] * xs[j][c]
            xs[i][c] = s / m[i][i]
    return xs


def lp_pow(x: Vec, p: int) -> Fraction:
    """Sum of |x_i|^p; exact stand-in for the p-th power of the l_p norm."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    return sum((abs(v) ** p for v in x), Fraction(0))


def ceil_log2(n: int) -> int:
    """ceil(log2 n) for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def bit_length(x) -> int:
    """Bit length b(x) of a rational: bits of numerator plus bits of the
    denominator in lowest terms, at least 1 for nonzero values, 0 for 0."""
    x = frac(x)
    if x == 0:
        return 0
    raw = ceil_log2(abs(x.numerator)) + ceil_log2(x.denominator)
    return max(1, raw)


def mat_bit_length(a: Mat) -> int:
    return max((bit_length(e) for row in a for e in row), default=0)


def vec_bit_length(x: Vec) -> int:
    return max((bit_length(e) for e in x), default=0)

