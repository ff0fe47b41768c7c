from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from potline.rational import bit_length, ceil_log2, determinant, frac, frac_str, integer, lp_pow, mat


def test_determinant_examples():
    assert determinant(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert determinant(mat([[2, 1], [1, 2]])) == 3
    assert determinant(mat([[0, -1], [1, 0]])) == 1


def test_lp_pow_examples():
    assert lp_pow([F(1), F(0)], 2) == lp_pow([F(0), F(1)], 2) == 1
    assert lp_pow([F(1, 2), F(-1, 2)], 1) == lp_pow([F(1), F(0)], 1) == 1
    assert lp_pow([F(1, 2), F(-1, 2)], 2) == F(1, 2)
    with pytest.raises(ValueError):
        lp_pow([F(1)], 0)


def test_bit_length():
    assert bit_length(0) == 0
    assert bit_length(1) == 1  # clamped to >= 1 for nonzero
    assert bit_length(F(1, 2)) == 1
    assert bit_length(F(1, 4)) == 2
    assert bit_length(6) == 3
    assert ceil_log2(1) == 0 and ceil_log2(8) == 3 and ceil_log2(9) == 4


def test_frac_str_roundtrip():
    for s in ("3", "-1/2", "7/3"):
        assert frac_str(frac(s)) == s


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_det_inverse_product(n, data):
    """det(AB) = det(A) det(B), and the adjugate over det(A), built from
    cofactor determinants, is a two-sided inverse of A."""
    a = [[F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    b = [[data.draw(small_fracs) for _ in range(n)] for _ in range(n)]
    d = determinant(a)
    assert determinant(_matmul(a, b)) == d * determinant(b)
    if d == 0:
        return

    def minor(i, j):
        return [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(a) if r != i]

    inv = [[(-1) ** (i + j) * determinant(minor(j, i)) / d for j in range(n)] for i in range(n)]
    eye = [[F(i == j) for j in range(n)] for i in range(n)]
    assert _matmul(a, inv) == eye == _matmul(inv, a)


def test_frac_rejects_bools():
    # bool subclasses int, but a JSON true or false is no number.
    assert frac(3) == 3 and type(frac(3)) is F
    for x in (True, False, 0.5):
        with pytest.raises(TypeError):
            frac(x)


# Integers and rationals written as text have one form: ASCII decimal digits,
# at least one, after an optional '-', and a rational is an integer or an
# integer over unsigned digits.  `int()` and `Fraction()` read all of these.
NOT_DECIMAL = ["", "-", "--1", "+1", " 1", "1 ", "1_0", "\u0661", "\u00b2", "0x1", "1.0", "1e1"]


def test_frac_reads_an_integer_or_num_over_den():
    assert frac("7") == 7 and frac("-0") == 0 and frac("007") == 7
    assert frac("3/16") == F(3, 16) and frac("-12345/678") == F(-12345, 678) and frac("-3/06") == F(-1, 2)
    for text in NOT_DECIMAL + [" -1/2 ", "1.5", "1/-2", "1/+2", "-1/-2", "/2", "1/", "1/2/3", "1/ 2", "1 /2"]:
        with pytest.raises(ValueError, match="is not an integer or num/den"):
            frac(text)
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        frac("1/0")
    with pytest.raises(ValueError, match="'-5/00' has a zero denominator"):
        frac("-5/00")


def test_integer_reads_ascii_decimal_digits():
    assert integer("0") == 0 and integer("04") == 4 and integer("-12") == -12
    assert integer("12", signed=False) == 12
    for text in NOT_DECIMAL:
        with pytest.raises(ValueError, match="is not a decimal integer"):
            integer(text)
    for text in ("-0", "-12"):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            integer(text, signed=False)
