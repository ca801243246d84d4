"""Univariate polynomials with exact integer coefficients.

Coefficients are stored low degree first; the zero polynomial is the empty
tuple and has degree -1.  All arithmetic is exact (Python big ints), and
gcds use the primitive remainder sequence so intermediate coefficients do
not blow up the way naive rational elimination would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            a = self[k]
            if a == 0:
                continue
            if k == 0:
                terms.append(f"{a:+d}")
            else:
                var = "t" if k == 1 else f"t^{k}"
                if a == 1:
                    terms.append(f"+{var}")
                elif a == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{a:+d}*{var}")
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[k] + other[k] for k in range(n))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[k] - other[k] for k in range(n))

    def __neg__(self) -> "IntPoly":
        return IntPoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * a for a in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def evaluate(self, x):
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(k * a for k, a in enumerate(self.coeffs) if k > 0)

    def content(self) -> int:
        if self.is_zero:
            return 0
        g = 0
        for a in self.coeffs:
            g = math.gcd(g, a)
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content; leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading() < 0:
            g = -g
        return IntPoly(a // g for a in self.coeffs)

    def divmod_exact(self, d: "IntPoly"):
        """Quotient and remainder over the rationals, returned exactly.

        Both are computed with Fraction coefficients; use divides() when
        you only care whether the division is exact over the integers.
        """
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(a) for a in self.coeffs]
        q = [Fraction(0)] * max(len(self.coeffs) - len(d.coeffs) + 1, 1)
        dl = d.leading()
        for k in range(len(rem) - len(d.coeffs), -1, -1):
            c = rem[k + d.degree] / dl
            if c:
                q[k] = c
                for j, b in enumerate(d.coeffs):
                    rem[k + j] -= c * b
        return q, rem

    def divides(self, other: "IntPoly") -> bool:
        """True iff self divides other exactly over the rationals."""
        if self.is_zero:
            return other.is_zero
        if other.is_zero:
            return True
        if other.degree < self.degree:
            return False
        _, rem = other.divmod_exact(self)
        return all(c == 0 for c in rem)

    def exact_div(self, d: "IntPoly") -> "IntPoly":
        """Exact quotient with integer coefficients; raises if not exact."""
        q, rem = self.divmod_exact(d)
        if any(c != 0 for c in rem) or any(c.denominator != 1 for c in q):
            raise ValueError(f"{d} does not divide {self} over the integers")
        return IntPoly(int(c) for c in q)


def poly_from_roots(roots: Sequence[int]) -> IntPoly:
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


def monomial(k: int, coeff: int = 1) -> IntPoly:
    return IntPoly([0] * k + [coeff])


T = monomial(1)
ONE = IntPoly([1])


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, all integer."""
    d = a.degree - b.degree
    lc = b.leading()
    rem = list(a.coeffs)
    for k in range(d, -1, -1):
        top = rem[k + b.degree]
        rem = [lc * c for c in rem]
        for j, bc in enumerate(b.coeffs):
            rem[k + j] -= top * bc
        # top entry is now exactly zero
    return IntPoly(rem)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient.

    Uses the primitive PRS: every remainder is reduced to its primitive
    part, which keeps the coefficients of intermediate steps small.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f.primitive() if not f.is_zero else f, g.primitive() if not g.is_zero else g
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, (r.primitive() if not r.is_zero else r)
    return a.primitive()


def poly_squarefree(f: IntPoly) -> bool:
    """True iff f has no repeated roots (gcd(f, f') constant)."""
    if f.is_zero:
        raise ValueError("squarefree test on the zero polynomial")
    if f.is_constant:
        return True
    return poly_gcd(f, f.derivative()).is_constant


def squarefree_part(f: IntPoly) -> IntPoly:
    """f with repeated roots collapsed to simple ones: f / gcd(f, f')."""
    if f.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if f.is_constant:
        return IntPoly([1])
    return f.exact_div(poly_gcd(f, f.derivative())).primitive()


def distinct_root_count(f: IntPoly) -> int:
    """Number of distinct complex roots: degree of the squarefree part."""
    return squarefree_part(f).degree


def interpolate_fractions(points: Sequence[int], values: Sequence) -> tuple:
    """Coefficients (low first, Fractions) of the unique polynomial of
    degree < len(points) through the given (point, value) data."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("interpolation points must be distinct")
    if n == 0:
        return ()
    # Newton's divided differences, then expand to the monomial basis.
    dd = [Fraction(v) for v in values]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (points[i] - points[i - level])
    coeffs = [Fraction(0)] * n
    # Horner on the Newton form: p = dd[n-1]; p = p*(t - x_i) + dd[i]
    coeffs[0] = dd[n - 1]
    deg = 0
    for i in range(n - 2, -1, -1):
        # multiply current poly by (t - points[i])
        for k in range(deg, -1, -1):
            coeffs[k + 1] += coeffs[k]
            coeffs[k] = -points[i] * coeffs[k]
        deg += 1
        coeffs[0] += dd[i]
    return tuple(coeffs)


class RationalFunction:
    """Ratio of two integer polynomials; denominator nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    def normalize(self) -> "RationalFunction":
        """Cancel the gcd and make the denominator's leading coefficient
        positive; 0/f collapses to 0/1."""
        if self.num.is_zero:
            return RationalFunction(IntPoly(), IntPoly([1]))
        g = poly_gcd(self.num, self.den)
        num = self.num.exact_div(g)
        den = self.den.exact_div(g)
        c = math.gcd(num.content(), den.content())
        if den.leading() < 0:
            c = -c
        num = IntPoly(a // c for a in num.coeffs)
        den = IntPoly(a // c for a in den.coeffs)
        return RationalFunction(num, den)

    def distinct_pole_count(self) -> int:
        """Distinct roots of the denominator after cancellation."""
        r = self.normalize()
        if r.den.is_constant:
            return 0
        return distinct_root_count(r.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        r = self.normalize()
        return hash((r.num, r.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num})/({self.den})"


def rf_normalize(r: RationalFunction) -> RationalFunction:
    return r.normalize()


def distinct_pole_count(r: RationalFunction) -> int:
    return r.distinct_pole_count()
