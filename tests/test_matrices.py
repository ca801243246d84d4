import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctrlgraph.matrices import (
    adjugate_samples,
    bilinear_numerator_fractions,
    char_poly,
    clear_denominators,
    identity,
    inverse,
    int_det,
    int_rank,
    krylov_columns,
    mat_mul,
    mat_rank,
    mat_vec,
    solve,
    transpose,
)
from ctrlgraph.graphs import complete
from ctrlgraph.polys import mul

from conftest import all_graphs_upto, all_subsets
from oracles import (
    adjugate_numerator,
    charpoly_at,
    cofactor_adjugate,
    cofactor_det,
    evaluate,
    list_adjugate,
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
    assert mat_rank(identity(3)) == 3


def test_rank_p3_middle_walk_matrix():
    # columns e2, e1+e3, 2e2 of the middle-vertex pair on the 3-path
    w = [[0, 1, 0], [1, 0, 2], [0, 1, 0]]
    assert mat_rank(w) == 2


def test_rank_fraction_entries():
    m = [[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]
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
    assert char_poly([[0]]) == (0, 1)


def test_char_poly_p2():
    m = [[0, 1], [1, 0]]
    assert char_poly(m) == (-1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: int_matrix(n, -3, 3)), st.integers(-4, 4))
def test_char_poly_matches_cofactor_oracle(rows, c):
    # symmetrize so the case matches how the library is used
    n = len(rows)
    sym = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    p = char_poly(sym)
    assert evaluate(p, c) == charpoly_at(sym, c)


def _packed_pass_agrees(rows):
    """The packed pass gives the list pass's phi and the diagonals of its
    B_k, and every slot value it stores stays below its docstring's bound
    2^(n+1) (n a)^n: the entries of each M_j = B_{n-j}, and those of
    A M_j = M_{j+1} - c_{n-j} I, whose diagonal is B_{k-1}[i][i] - c_k
    for k = n - j >= 1 and -c_0 for j = n."""
    n = len(rows)
    phi, bs = list_adjugate(rows)
    assert adjugate_samples(rows) == (
        phi,
        tuple(tuple(bk[i][i] for i in range(n)) for bk in bs),
    )
    a = max((abs(x) for r in rows for x in r), default=1) or 1
    stored = [x for bk in bs for r in bk for x in r] + [phi[0]]
    stored += [bs[k - 1][i][i] - phi[k] for k in range(1, n) for i in range(n)]
    assert max(map(abs, stored), default=0) < 2 ** (n + 1) * (n * a) ** n


def _list_pass_matches_cofactors(rows):
    n = len(rows)
    phi, bs = list_adjugate(rows)
    assert len(phi) == n + 1 and phi[-1] == 1
    assert len(bs) == n
    for c in (-3, -1, 0, 2, 5):
        assert evaluate(phi, c) == charpoly_at(rows, c)
        shifted = [
            [c * (i == j) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        summed = [
            [sum(bk[i][j] * c**k for k, bk in enumerate(bs)) for j in range(n)]
            for i in range(n)
        ]
        assert summed == cofactor_adjugate(shifted)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: int_matrix(n, -4, 4)))
def test_adjugate_pass_matches_cofactor_oracle(rows):
    # non-symmetric on purpose: the pass must not rely on A = A^T
    _list_pass_matches_cofactors(rows)
    _packed_pass_agrees(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: int_matrix(n, -(10**6), 10**6)))
def test_packed_adjugate_pass_at_large_entries(rows):
    # signed, non-symmetric entries up to 10^6 put the slot width under
    # stress: `lti` and `laplacian` pass rows that are not 0/1
    _list_pass_matches_cofactors(rows)
    _packed_pass_agrees(rows)


def test_packed_adjugate_pass_on_complete_graphs():
    # K_v has the most walks of any graph on v vertices
    for v in range(13):
        _packed_pass_agrees(complete(v).rows)


def test_char_poly_block_diagonal_multiplies():
    a = [[0, 1], [1, 0]]
    b = [[2]]
    block = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    assert char_poly(block) == mul(char_poly(a), char_poly(b))


def test_char_poly_requires_square():
    with pytest.raises(ValueError):
        char_poly([[0, 0, 0], [0, 0, 0]])


def test_adjugate_samples_requires_integral_rows():
    # int rows only: a rational matrix is scaled to integers by its caller,
    # so even an integral Fraction is refused
    with pytest.raises(ValueError, match="integer matrix required"):
        adjugate_samples([[Fraction(2), 1], [1, 0]])
    with pytest.raises(ValueError):
        adjugate_samples([[Fraction(1, 2), 0], [1, 0]])
    with pytest.raises(ValueError):
        adjugate_samples([[0, 1], [1]])


def test_solve_and_inverse():
    m = [[2, 1], [1, 1]]
    x = solve(m, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    assert mat_mul(m, inverse(m)) == identity(2)


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
    assert mat_mul(rows, inverse(rows)) == identity(len(rows))
    assert mat_vec(rows, solve(rows, b)) == b


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
        solve([[1, 1], [1, 1]], [1, 2])


def test_bilinear_numerator_is_adjugate_quadratic_form():
    # 2x2 swap matrix: adj(tI - A) = [[t, 1], [1, t]]
    a = [[0, 1], [1, 0]]
    phi = char_poly(a)
    assert bilinear_numerator_fractions(phi, [1, 1], krylov_columns(a, [1, 1], 2)) == (2, 2)
    assert bilinear_numerator_fractions(phi, [1, 0], krylov_columns(a, [1, 0], 2)) == (0, 1)


def _numerator_oracles_agree(rows, pairs):
    """For each (y, z): y^T adj(tI - A) z from phi and the Krylov columns
    of z equals the B_k read, and at n points y^T adj(cI - A) z by
    cofactor expansion, which fixes a polynomial of degree below n."""
    n = len(rows)
    phi, bs = list_adjugate(rows)
    shifted = {
        c: [[c * (i == j) - rows[i][j] for j in range(n)] for i in range(n)]
        for c in range(-1, n - 1)
    }
    cofactors = {c: cofactor_adjugate(m) for c, m in shifted.items()}
    for y, z in pairs:
        got = bilinear_numerator_fractions(phi, y, krylov_columns(rows, z, n))
        assert got == adjugate_numerator(bs, y, z), (rows, y, z)
        for c, adj in cofactors.items():
            direct = sum(y[i] * adj[i][j] * z[j] for i in range(n) for j in range(n))
            assert evaluate(got, c) == direct, (rows, y, z, c)


def test_bilinear_numerator_matches_oracles_on_every_subset():
    for g in all_graphs_upto(6):
        vectors = [[int(u in s) for u in range(g.v)] for s in all_subsets(g.v)]
        _numerator_oracles_agree(g.rows, [(z, z) for z in vectors])


def test_bilinear_numerator_matches_oracles_on_non_symmetric_matrices():
    # the lti case: A need not be symmetric, and y != z
    rng = random.Random(15)
    for n in range(7):
        for _ in range(12):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            pairs = []
            while len(pairs) < 4:
                y = [rng.randint(-3, 3) for _ in range(n)]
                z = [rng.randint(-3, 3) for _ in range(n)]
                if y != z or n == 0:
                    pairs.append((y, z))
            _numerator_oracles_agree(rows, pairs)


def test_bilinear_numerator_refuses_shape_mismatch():
    a = [[0, 1], [1, 0]]
    phi = char_poly(a)
    cols = krylov_columns(a, [1, 0], 2)
    bad = [
        (phi[:-1], [1, 0], cols),
        (phi, [1], cols),
        (phi, [1, 0], cols[:1]),
        (phi, [1, 0], [cols[0], [0]]),
    ]
    for args in bad:
        with pytest.raises(ValueError, match="shape mismatch"):
            bilinear_numerator_fractions(*args)


def test_matmul_and_transpose():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert transpose(a) == ((1, 3), (2, 4))
    assert mat_vec(a, [1, 1]) == [3, 7]
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(a, [[1, 0, 0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_vec(a, [1, 1, 1])
