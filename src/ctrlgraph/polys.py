"""Univariate polynomials with exact integer coefficients.

A polynomial is a tuple of ints, low degree first, with no trailing zero:
the zero polynomial is () and has degree -1, so len(f) - 1 is the degree
and f[-1] the leading coefficient.  Tuples compare and hash by value, and
every function here returns a trimmed tuple.  All arithmetic is exact
(Python big ints), and gcds use the primitive remainder sequence so
intermediate coefficients do not blow up the way naive rational
elimination would.  A rational function is a (num, den) pair of such
tuples, put in lowest terms by `reduce_ratio`.  Rationals appear only as
the Fraction coefficients `interpolate_fractions` reads off one
`matrices.solve`.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, Sequence

from .matrices import solve


def trim(coeffs: Iterable[int]) -> tuple:
    """The coefficients as a tuple with trailing zeros removed."""
    c = tuple(coeffs)
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def add(f: Sequence[int], g: Sequence[int]) -> tuple:
    return trim(a + b for a, b in zip_longest(f, g, fillvalue=0))


def sub(f: Sequence[int], g: Sequence[int]) -> tuple:
    return trim(a - b for a, b in zip_longest(f, g, fillvalue=0))


def mul(f: Sequence[int], g: Sequence[int]) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return trim(out)


def derivative(f: Sequence[int]) -> tuple:
    return tuple(k * a for k, a in enumerate(f) if k)


def primitive(f: tuple) -> tuple:
    """Divide out the content; leading coefficient made positive."""
    if not f:
        return f
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return tuple(a // g for a in f)


def _quotient(f: Sequence[int], d: Sequence[int]) -> tuple | None:
    """f / d by integer long division: None unless the remainder is zero and
    every quotient coefficient is an integer."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    lc, n = d[-1], len(d) - 1
    q = [0] * (len(rem) - n)
    for k in range(len(rem) - 1 - n, -1, -1):
        c, r = divmod(rem[k + n], lc)
        if r:
            return None
        if c:
            q[k] = c
            for j, b in enumerate(d, k):
                rem[j] -= c * b
    return None if any(rem) else trim(q)


def divides(d: tuple, f: Sequence[int]) -> bool:
    """True iff d divides f exactly over the rationals, that is (Gauss's
    lemma) iff its primitive part divides f over the integers; a monic d
    is its own primitive part."""
    if not d:
        return not f
    return _quotient(f, d if d[-1] == 1 else primitive(d)) is not None


def exact_div(f: Sequence[int], d: Sequence[int]) -> tuple:
    """Exact quotient with integer coefficients; raises if not exact."""
    q = _quotient(f, d)
    if q is None:
        raise ValueError(f"{d} does not divide {f} over the integers")
    return q


def _pseudo_rem(a: tuple, b: tuple) -> tuple:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, all integer."""
    lc, low = b[-1], b[:-1]
    rem = list(a)
    for k in range(len(a) - len(b), -1, -1):
        top = rem.pop()  # cancelled exactly by top * lc(b)
        rem = [lc * c for c in rem]
        for j, bc in enumerate(low, k):
            rem[j] -= top * bc
    return trim(rem)


def poly_gcd(f: tuple, g: tuple) -> tuple:
    """Primitive gcd with positive leading coefficient.

    Uses the primitive PRS: every remainder is reduced to its primitive
    part, which keeps the coefficients of intermediate steps small.
    """
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = primitive(f), primitive(g)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(_pseudo_rem(a, b))
    return a


def poly_squarefree(f: tuple) -> bool:
    """True iff f has no repeated roots (gcd(f, f') constant)."""
    if not f:
        raise ValueError("squarefree test on the zero polynomial")
    return len(f) <= 1 or len(poly_gcd(f, derivative(f))) == 1


def interpolate_fractions(points: Sequence[int], values: Sequence) -> tuple:
    """Coefficients (low first, Fractions) of the unique polynomial of
    degree < len(points) through the given (point, value) data: one exact
    `solve` on the Vandermonde rows."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("interpolation points must be distinct")
    if n == 0:
        return ()
    return tuple(solve([[x**k for k in range(n)] for x in points], values))


def reduce_ratio(num: Sequence[int], den: Sequence[int]) -> tuple:
    """(num, den) in lowest terms: the gcd cancelled, the content divided
    out and den's leading coefficient positive; 0/f is ((), (1,))."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), (1,)
    g = poly_gcd(num, den)
    num = exact_div(num, g)
    den = exact_div(den, g)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    return tuple(a // c for a in num), tuple(a // c for a in den)
