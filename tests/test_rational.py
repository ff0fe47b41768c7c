from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from potline.rational import (
    SingularMatrixError,
    bit_length,
    ceil_log2,
    determinant,
    frac,
    frac_str,
    lp_pow,
    mat,
    solve_linear,
    solve_linear_multi,
)


def test_solve_identity():
    a = mat([[1, 0], [0, 1]])
    assert solve_linear(a, [F(3), F(-1, 2)]) == [F(3), F(-1, 2)]


def test_solve_2x2_adjugate():
    a = mat([[-2, 0], [-1, 1]])
    assert solve_linear(a, [F(-1), F(-1)]) == [F(1, 2), F(-1, 2)]


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(mat([[1, 1], [1, 1]]), [F(1), F(0)])


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_solve_roundtrip_random(n, data):
    a = [[data.draw(small_fracs) for _ in range(n)] for _ in range(n)]
    b = [data.draw(small_fracs) for _ in range(n)]
    try:
        x = solve_linear(a, b)
    except SingularMatrixError:
        assert determinant(a) == 0
        return
    assert [sum((aij * xj for aij, xj in zip(row, x)), F(0)) for row in a] == b


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_det_inverse_product(n, data):
    a = [[F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    d = determinant(a)
    if d == 0:
        return
    ainv = solve_linear_multi(a, [[F(i == j) for j in range(n)] for i in range(n)])
    assert determinant(ainv) * d == 1

