from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlgraph.polys import (
    IntPoly,
    RationalFunction,
    interpolate_fractions,
    poly_gcd,
    poly_squarefree,
)

from oracles import (
    distinct_pole_count,
    distinct_root_count,
    divmod_fractions,
    poly_from_roots,
    squarefree_part,
)

T3_2T = IntPoly([0, -2, 0, 1])  # t^3 - 2t
T2_1 = IntPoly([-1, 0, 1])  # t^2 - 1


def test_zero_poly_degree():
    assert IntPoly().degree == -1
    assert IntPoly([0, 0]).degree == -1
    assert IntPoly().is_zero


def test_arithmetic_basics():
    f = IntPoly([1, 2])
    g = IntPoly([-1, 1])
    assert f * g == IntPoly([-1, -1, 2])
    assert f + g == IntPoly([0, 3])
    assert f - f == IntPoly()
    assert (f * 3)[1] == 6
    assert f.evaluate(2) == 5
    assert f.evaluate(Fraction(1, 2)) == 2


def test_derivative():
    assert T3_2T.derivative() == IntPoly([-2, 0, 3])
    assert IntPoly([5]).derivative().is_zero


def test_gcd_coprime_pair():
    g = poly_gcd(T3_2T, T2_1)
    assert g.is_constant and g == IntPoly([1])


def test_gcd_self():
    f = IntPoly([-4, 0, 2])  # 2t^2 - 4
    assert poly_gcd(f, f) == IntPoly([-2, 0, 1])  # primitive, positive lead


def test_gcd_common_factor():
    assert poly_gcd(T2_1, IntPoly([-1, 1])) == IntPoly([-1, 1])


def test_gcd_zero_args():
    assert poly_gcd(IntPoly(), T2_1) == T2_1
    with pytest.raises(ValueError):
        poly_gcd(IntPoly(), IntPoly())


@settings(max_examples=100)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_gcd_divides_and_is_divided(a, b, c):
    """gcd(fc, gc) divides both, and the planted common factor divides it."""
    f, g, common = IntPoly(a), IntPoly(b), IntPoly(c)
    if f.is_zero or g.is_zero or common.is_zero:
        return
    fc, gc = f * common, g * common
    d = poly_gcd(fc, gc)
    assert d.divides(fc) and d.divides(gc)
    assert common.divides(d)


def test_squarefree():
    assert poly_squarefree(T2_1)
    assert not poly_squarefree(IntPoly([1, -2, 1]))  # (t-1)^2
    assert not poly_squarefree(IntPoly([0, 0, -4, 0, 1]))  # phi(C4) = t^4 - 4t^2
    with pytest.raises(ValueError):
        poly_squarefree(IntPoly())


def test_squarefree_part():
    f = poly_from_roots([1, 1, 2])
    assert squarefree_part(f) == poly_from_roots([1, 2])
    assert distinct_root_count(f) == 2


def test_rf_normalize_already_reduced():
    r = RationalFunction(T2_1, T3_2T).normalize()
    assert r.num == T2_1 and r.den == T3_2T


def test_rf_normalize_cancels():
    r = RationalFunction(IntPoly([-1, 1]), T2_1).normalize()
    assert r.num == IntPoly([1]) and r.den == IntPoly([1, 1])


def test_rf_normalize_zero_numerator():
    r = RationalFunction(IntPoly(), T3_2T).normalize()
    assert r.num.is_zero and r.den == IntPoly([1])


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(T2_1, IntPoly())


def test_distinct_pole_count():
    assert distinct_pole_count(RationalFunction(T2_1, T3_2T)) == 3
    assert distinct_pole_count(RationalFunction(IntPoly([1]), IntPoly([1, -2, 1]))) == 1


@settings(max_examples=60)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
)
def test_pole_count_invariant_under_normalize(a, b):
    num, den = IntPoly(a), IntPoly(b)
    if den.is_zero:
        return
    r = RationalFunction(num, den)
    assert distinct_pole_count(r) == distinct_pole_count(r.normalize())


def test_interpolation_round_trip():
    f = IntPoly([3, -1, 0, 2])
    pts = [0, 1, 2, 3, 7]
    got = interpolate_fractions(pts, [f.evaluate(c) for c in pts])
    assert got == (3, -1, 0, 2, 0)
    assert all(c.denominator == 1 for c in got)
    assert interpolate_fractions([], []) == ()


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_interpolation_recovers_poly(coeffs):
    f = IntPoly(coeffs)
    pts = list(range(len(coeffs)))
    got = interpolate_fractions(pts, [f.evaluate(c) for c in pts])
    assert IntPoly(int(c) for c in got) == f


def test_exact_div():
    f = T2_1 * T3_2T
    assert f.exact_div(T2_1) == T3_2T
    with pytest.raises(ValueError):
        T3_2T.exact_div(IntPoly([1, 1]))


@settings(max_examples=200)
@given(
    st.lists(st.integers(-6, 6), max_size=7),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: c[-1]),
    st.booleans(),
)
def test_integer_division_matches_fraction_oracle(a, d, planted):
    """exact_div and divides against Fraction long division, on quotients
    that are sometimes planted multiples of d."""
    f, g = IntPoly(a), IntPoly(d)
    if planted:
        f = f * g
    q, rem = divmod_fractions(f.coeffs, d)
    exact = not any(rem)
    assert g.divides(f) == exact
    if exact and all(c.denominator == 1 for c in q):
        assert f.exact_div(g) == IntPoly(int(c) for c in q)
    else:
        with pytest.raises(ValueError):
            f.exact_div(g)
