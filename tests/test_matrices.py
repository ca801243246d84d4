import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctrlgraph.matrices import (
    ExactMatrix,
    adjugate_samples,
    bilinear_numerator_poly,
    char_poly,
    clear_denominators,
    inverse,
    int_det,
    int_rank,
    krylov_columns,
    mat_rank,
    solve,
)
from ctrlgraph.polys import IntPoly

from oracles import (
    charpoly_at,
    cofactor_adjugate,
    cofactor_det,
    mat_power_vec,
    naive_rank,
)


def int_matrix(n, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    )


INT_ENTRY = st.integers(-4, 4)
RATIONAL_ENTRY = st.one_of(INT_ENTRY, st.fractions(-3, 3, max_denominator=5))


@st.composite
def square_and_vector(draw, entry, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    row = st.lists(entry, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


def test_rank_identity():
    assert mat_rank(ExactMatrix.identity(3)) == 3


def test_rank_p3_middle_walk_matrix():
    # columns e2, e1+e3, 2e2 of the middle-vertex pair on the 3-path
    w = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 2], [0, 1, 0]])
    assert mat_rank(w) == 2


def test_rank_fraction_entries():
    m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert mat_rank(m) == 1


@settings(max_examples=80)
@given(st.integers(1, 8).flatmap(int_matrix))
def test_rank_matches_naive_elimination(rows):
    assert int_rank(rows) == naive_rank(rows)


@settings(max_examples=80)
@given(st.integers(1, 5).flatmap(int_matrix))
def test_det_matches_cofactor(rows):
    assert int_det(rows) == cofactor_det(rows)


def test_char_poly_1x1_zero():
    assert char_poly([[0]]) == IntPoly([0, 1])


def test_char_poly_p2():
    m = [[0, 1], [1, 0]]
    assert char_poly(m) == IntPoly([-1, 0, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: int_matrix(n, -3, 3)), st.integers(-4, 4))
def test_char_poly_matches_cofactor_oracle(rows, c):
    # symmetrize so the case matches how the library is used
    n = len(rows)
    sym = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    p = char_poly(sym)
    assert p.evaluate(c) == charpoly_at(sym, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: int_matrix(n, -4, 4)))
def test_adjugate_pass_matches_cofactor_oracle(rows):
    # non-symmetric on purpose: the pass must not rely on A = A^T
    n = len(rows)
    phi, bs = adjugate_samples(rows)
    assert phi.degree == n and phi.leading() == 1
    assert len(bs) == n
    for c in (-3, -1, 0, 2, 5):
        assert phi.evaluate(c) == charpoly_at(rows, c)
        shifted = [
            [c * (i == j) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        summed = [
            [sum(bk[i][j] * c**k for k, bk in enumerate(bs)) for j in range(n)]
            for i in range(n)
        ]
        assert summed == cofactor_adjugate(shifted)


def test_char_poly_block_diagonal_multiplies():
    a = [[0, 1], [1, 0]]
    b = [[2]]
    block = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    assert char_poly(block) == char_poly(a) * char_poly(b)


def test_char_poly_requires_square():
    with pytest.raises(ValueError):
        char_poly([[0, 0, 0], [0, 0, 0]])


def test_adjugate_samples_requires_integral_rows():
    # integral Fractions are integers; anything else is refused
    assert adjugate_samples([[Fraction(2), 1], [1, Fraction(0)]]) == adjugate_samples(
        [[2, 1], [1, 0]]
    )
    with pytest.raises(ValueError):
        adjugate_samples([[Fraction(1, 2), 0], [1, 0]])
    with pytest.raises(ValueError):
        adjugate_samples([[0, 1], [1]])


def test_solve_and_inverse():
    m = ExactMatrix.from_rows([[2, 1], [1, 1]])
    x = solve(m, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    assert m @ inverse(m) == ExactMatrix.identity(2)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([INT_ENTRY, RATIONAL_ENTRY]).flatmap(square_and_vector),
    st.integers(0, 8),
)
def test_krylov_columns_match_repeated_matvec(pair, count):
    # non-symmetric on purpose, and over the rationals as well as the integers
    rows, z = pair
    cols = krylov_columns(rows, z, count)
    assert cols == [mat_power_vec(rows, z, k) for k in range(count)]


@settings(max_examples=60, deadline=None)
@given(square_and_vector(RATIONAL_ENTRY, min_n=1, max_n=5))
def test_solve_and_inverse_on_random_rational_matrices(pair):
    rows, b = pair
    assume(naive_rank(rows) == len(rows))
    m = ExactMatrix.from_rows(rows)
    assert m @ inverse(m) == ExactMatrix.identity(m.rows)
    assert m.matvec(solve(m, b)) == b


@settings(max_examples=100)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30))))
def test_clear_denominators_is_least_common_multiple(values):
    ints, d = clear_denominators(values)
    assert d == math.lcm(*(Fraction(x).denominator for x in values))
    assert len(ints) == len(values)
    assert all(type(i) is int and i == x * d for i, x in zip(ints, values))


def test_clear_denominators_keeps_integers():
    assert clear_denominators([3, 0, -2]) == ([3, 0, -2], 1)
    assert clear_denominators([]) == ([], 1)


def test_solve_singular():
    with pytest.raises(ValueError):
        solve(ExactMatrix.from_rows([[1, 1], [1, 1]]), [1, 2])


def test_bilinear_numerator_is_adjugate_quadratic_form():
    # 2x2 swap matrix: adj(tI - A) = [[t, 1], [1, t]]
    _, bs = adjugate_samples([[0, 1], [1, 0]])
    assert bilinear_numerator_poly(bs, [1, 1], [1, 1]) == IntPoly([2, 2])
    assert bilinear_numerator_poly(bs, [1, 0], [1, 0]) == IntPoly([0, 1])


def test_matmul_and_transpose():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == ExactMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == ExactMatrix.from_rows([[1, 3], [2, 4]])
    assert a.matvec([1, 1]) == [3, 7]
