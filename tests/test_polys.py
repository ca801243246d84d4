from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlgraph.polys import (
    add,
    derivative,
    divides,
    exact_div,
    interpolate_fractions,
    mul,
    poly_gcd,
    poly_squarefree,
    primitive,
    reduce_ratio,
    sub,
    trim,
)

from oracles import (
    distinct_pole_count,
    distinct_root_count,
    divmod_fractions,
    evaluate,
    poly_from_roots,
    squarefree_part,
)

T3_2T = (0, -2, 0, 1)  # t^3 - 2t
T2_1 = (-1, 0, 1)  # t^2 - 1
T = sympy.Symbol("t")


def test_zero_poly_degree():
    assert trim([0, 0]) == ()
    assert len(trim([])) - 1 == -1
    assert trim([3, 0, 1, 0]) == (3, 0, 1)


def test_arithmetic_basics():
    f = (1, 2)
    g = (-1, 1)
    assert mul(f, g) == (-1, -1, 2)
    assert add(f, g) == (0, 3)
    assert sub(f, f) == ()
    assert mul(f, (3,)) == (3, 6)
    assert mul(f, ()) == ()
    assert evaluate(f, 2) == 5
    assert evaluate(f, Fraction(1, 2)) == 2


def test_derivative():
    assert derivative(T3_2T) == (-2, 0, 3)
    assert derivative((5,)) == ()


def test_gcd_coprime_pair():
    assert poly_gcd(T3_2T, T2_1) == (1,)


def test_gcd_self():
    f = (-4, 0, 2)  # 2t^2 - 4
    assert poly_gcd(f, f) == (-2, 0, 1)  # primitive, positive lead


def test_gcd_common_factor():
    assert poly_gcd(T2_1, (-1, 1)) == (-1, 1)


def test_gcd_zero_args():
    assert poly_gcd((), T2_1) == T2_1
    with pytest.raises(ValueError):
        poly_gcd((), ())


@settings(max_examples=100)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_gcd_divides_and_is_divided(a, b, c):
    """gcd(fc, gc) divides both, and the planted common factor divides it."""
    f, g, common = trim(a), trim(b), trim(c)
    if not f or not g or not common:
        return
    fc, gc = mul(f, common), mul(g, common)
    d = poly_gcd(fc, gc)
    assert divides(d, fc) and divides(d, gc)
    assert divides(common, d)


def _sympy_coeffs(expr) -> tuple:
    """Integer coefficients of a sympy polynomial in t, low degree first."""
    if expr == 0:
        return ()
    return tuple(int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs()))


def _expr(f):
    return sum(c * T**k for k, c in enumerate(f))


def _trimmed(f) -> bool:
    return isinstance(f, tuple) and (not f or f[-1] != 0)


polys_st = st.lists(st.integers(-9, 9), max_size=6).map(trim)


@settings(max_examples=150, deadline=None)
@given(polys_st, polys_st)
def test_tuple_operations_match_oracles(f, g):
    """Every operation returns a trimmed tuple and agrees with sympy or with
    Fraction long division."""
    results = {
        "mul": mul(f, g),
        "add": add(f, g),
        "sub": sub(f, g),
        "derivative": derivative(f),
        "primitive": primitive(f),
    }
    assert all(_trimmed(r) for r in results.values())
    assert results["mul"] == _sympy_coeffs(sympy.expand(_expr(f) * _expr(g)))
    assert results["add"] == _sympy_coeffs(sympy.expand(_expr(f) + _expr(g)))
    assert results["sub"] == _sympy_coeffs(sympy.expand(_expr(f) - _expr(g)))
    assert results["derivative"] == _sympy_coeffs(sympy.diff(_expr(f), T))
    if f:
        content, prim = sympy.Poly(_expr(f), T).primitive()
        sign = 1 if f[-1] > 0 else -1
        assert results["primitive"] == _sympy_coeffs(sign * prim.as_expr())
        assert mul(results["primitive"], (sign * int(content),)) == f
    else:
        assert results["primitive"] == ()
    if f or g:
        d = poly_gcd(f, g)
        assert _trimmed(d) and d[-1] > 0
        expected = sympy.Poly(sympy.gcd(_expr(f), _expr(g)), T).primitive()[1]
        if expected.LC() < 0:
            expected = -expected
        assert d == _sympy_coeffs(expected.as_expr())
    if g:
        product = mul(f, g)
        q = exact_div(product, g)
        assert _trimmed(q) and q == f
        oracle_q, rem = divmod_fractions(product, g)
        assert not any(rem) and trim(int(c) for c in oracle_q) == q


def test_squarefree():
    assert poly_squarefree(T2_1)
    assert not poly_squarefree((1, -2, 1))  # (t-1)^2
    assert not poly_squarefree((0, 0, -4, 0, 1))  # phi(C4) = t^4 - 4t^2
    with pytest.raises(ValueError):
        poly_squarefree(())


def test_squarefree_part():
    f = poly_from_roots([1, 1, 2])
    assert squarefree_part(f) == poly_from_roots([1, 2])
    assert distinct_root_count(f) == 2


def test_rf_normalize_already_reduced():
    assert reduce_ratio(T2_1, T3_2T) == (T2_1, T3_2T)


def test_rf_normalize_cancels():
    assert reduce_ratio((-1, 1), T2_1) == ((1,), (1, 1))
    # content divided out, denominator's leading coefficient made positive
    assert reduce_ratio((2, 4), (-6, 0, -2)) == ((-1, -2), (3, 0, 1))


def test_rf_normalize_zero_numerator():
    assert reduce_ratio((), T3_2T) == ((), (1,))


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        reduce_ratio(T2_1, ())


def test_distinct_pole_count():
    assert distinct_pole_count(T2_1, T3_2T) == 3
    assert distinct_pole_count((1,), (1, -2, 1)) == 1


@settings(max_examples=60)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
)
def test_pole_count_invariant_under_normalize(a, b):
    num, den = trim(a), trim(b)
    if not den:
        return
    assert distinct_pole_count(num, den) == distinct_pole_count(*reduce_ratio(num, den))


def test_interpolation_round_trip():
    f = (3, -1, 0, 2)
    pts = [0, 1, 2, 3, 7]
    got = interpolate_fractions(pts, [evaluate(f, c) for c in pts])
    assert got == (3, -1, 0, 2, 0)
    assert all(c.denominator == 1 for c in got)
    assert interpolate_fractions([], []) == ()


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_interpolation_recovers_poly(coeffs):
    f = trim(coeffs)
    pts = list(range(len(coeffs)))
    got = interpolate_fractions(pts, [evaluate(f, c) for c in pts])
    assert trim(int(c) for c in got) == f


def test_exact_div():
    f = mul(T2_1, T3_2T)
    assert exact_div(f, T2_1) == T3_2T
    with pytest.raises(ValueError):
        exact_div(T3_2T, (1, 1))


@settings(max_examples=200)
@given(
    st.lists(st.integers(-6, 6), max_size=7),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: c[-1]),
    st.booleans(),
)
def test_integer_division_matches_fraction_oracle(a, d, planted):
    """exact_div and divides against Fraction long division, on quotients
    that are sometimes planted multiples of d."""
    f, g = trim(a), tuple(d)
    if planted:
        f = mul(f, g)
    q, rem = divmod_fractions(f, d)
    exact = not any(rem)
    assert divides(g, f) == exact
    if exact and all(c.denominator == 1 for c in q):
        assert exact_div(f, g) == trim(int(c) for c in q)
    else:
        with pytest.raises(ValueError):
            exact_div(f, g)
