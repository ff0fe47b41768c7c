"""Exact rational helpers: coercion of JSON numbers, the Bareiss
determinant, l_p norm comparisons and bit lengths.

Verifiers, solvers and map-backs run on `fractions.Fraction`.  Matrices
are dense lists of lists, vectors plain lists.  `determinant` uses Bareiss
fraction-free elimination on an integer-cleared copy, which keeps
intermediate bit growth polynomial; it serves the principal-minor checks
(PV1), which stay independent of the Lemke tableau.  Linear solves are
tableau reads of `pivoting.LemkeSystem`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

Vec = list[Fraction]
Mat = list[list[Fraction]]


def integer(text: str, signed: bool = True) -> int:
    """The integer text writes in ASCII decimal digits, at least one, after
    a '-' when signed; else ValueError.  No '+', space, '_' or other
    script's digits, which `int()` and `Fraction()` would read.  The one
    reader of integers written as text (CLI options, POTLINE_BUDGET, grid
    keys, and the parts of a rational in `frac`)."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings: an integer or 'num/den', each
    part as `integer` reads it and den unsigned.  A string with a zero
    denominator raises ValueError, like any other string that names no
    rational; a bool is no number, as in `json_int`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        try:
            n, d = integer(num), integer(den, signed=False) if slash else 1
        except ValueError:
            raise ValueError(f"{x!r} is not an integer or num/den in decimal digits") from None
        if d == 0:
            raise ValueError(f"{x!r} has a zero denominator")
        return Fraction(n, d)
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def json_int(x) -> int:
    """A JSON integer as it is: an int, not a bool, a float or a string,
    which `int()` would truncate or parse."""
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {type(x).__name__}")
    return x


def frac_str(x: Fraction) -> str:
    """Serialize as 'num/den' (or plain integer when den = 1)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def int_row(row: Vec) -> tuple[int, list[int]]:
    """(s, s * row), s the lcm of the row's denominators: rows to integers.
    Each entry is read once, as its (numerator, denominator)."""
    ratios = [x.as_integer_ratio() for x in row]
    s = lcm(*[b for _, b in ratios])
    return s, [a * (s // b) for a, b in ratios]


def mat(rows) -> Mat:
    m = [[frac(x) for x in row] for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def determinant(a: Mat) -> Fraction:
    """Exact determinant via Bareiss elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    scaled = [int_row(row) for row in a]
    m, scale = [row for _, row in scaled], prod(s for s, _ in scaled)
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
    return Fraction(sign * m[n - 1][n - 1], scale)


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

