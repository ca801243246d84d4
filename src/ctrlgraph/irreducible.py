"""Exact factorization over the rationals of monic integer polynomials,
and the irreducibility test read from it.  `factors` is the one
factoring function: it runs the one squarefree test and returns None on a
repeated root, so a caller that wants the factors of f whatever its roots
factors the squarefree part f / gcd(f, f').

One Berlekamp-Zassenhaus pass (von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 14-15), with no degree cap.  A factor t is divided out
first.  For the least prime p > deg(f)^2 with f mod p squarefree, f is
factored over GF(p): distinct-degree factorization, one Frobenius step
per degree read from Berlekamp's Q-matrix (the rows t^{ip} mod f), each
block split by Cantor-Zassenhaus on t + c.  One piece means f is
irreducible.  Otherwise every piece is Hensel-lifted to a modulus
m = p^k above twice Mignotte's bound on the coefficients of a factor of
degree at most deg(f)/2, and products of lifted pieces, by increasing
number of pieces, are tried as integer divisors of f: a factor of f over
the integers is the symmetric lift of one of them.  Each divisor found
is divided out of f and its pieces dropped, and the search goes on with
the same number of pieces; what is left of f when none divides is its
last factor.

Polynomials are coefficient tuples as in `polys`; the helpers return them
reduced modulo the modulus they are given.
"""

from __future__ import annotations

import itertools
import math

from .errors import InternalConsistencyError
from .polys import (
    add,
    derivative,
    divides,
    exact_div,
    mul,
    poly_squarefree,
    sub,
    trim,
)


def _reduce(a, m: int) -> tuple:
    return trim(x % m for x in a)


def _mul(a: tuple, b: tuple, m: int) -> tuple:
    return _reduce(mul(a, b), m)


def _product(polys, m: int) -> tuple:
    out = (1,)
    for g in polys:
        out = _mul(out, g, m)
    return out


def _divmod(a: tuple, b: tuple, m: int):
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    a = list(a)
    binv = pow(b[-1], -1, m)
    nb = len(b) - 1
    q = [0] * (len(a) - nb)
    for off in range(len(a) - 1 - nb, -1, -1):
        c = a[off + nb] * binv % m
        if c:
            q[off] = c
            for i in range(nb):
                a[off + i] -= c * b[i]
    return trim(q), _reduce(a[:nb], m)


def _gcd(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd over GF(p)."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


def _powmod(a: tuple, e: int, f: tuple, p: int) -> tuple:
    """a^e mod f over GF(p), by left-to-right square and multiply."""
    base = _divmod(a, f, p)[1]
    result = (1,)
    for bit in bin(e)[2:]:
        result = _divmod(_mul(result, result, p), f, p)[1]
        if bit == "1":
            result = _divmod(_mul(result, base, p), f, p)[1]
    return result


def _inverse(a: tuple, g: tuple, p: int) -> tuple:
    """a^{-1} mod g over GF(p), for a coprime to g (extended Euclid)."""
    r0, r1, s0, s1 = g, _divmod(a, g, p)[1], (), (1,)
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(sub(s0, mul(q, s1)), p)
    inv = pow(r1[0], -1, p)
    return tuple(x * inv % p for x in s1)


def _split(g: tuple, k: int, p: int) -> list[tuple]:
    """The factors of g, a product of distinct monic irreducibles of degree
    k over GF(p), by Cantor-Zassenhaus on t + c.  Two such factors u, v are
    split by some c unless p <= (2k - 1)^2 (Weil's bound on the character
    sum of u v), so for p > deg^2 finding no c is a bug."""
    if len(g) - 1 == k:
        return [g]
    e = (p**k - 1) // 2
    for c in range(p):
        w = _reduce(sub(_powmod((c, 1), e, g, p), (1,)), p)
        u = _gcd(g, w, p)
        if 1 < len(u) < len(g):
            return _split(u, k, p) + _split(_divmod(g, u, p)[0], k, p)
    raise InternalConsistencyError(f"no t + c splits a degree-{k} block mod {p}")


def _frobenius_rows(f: tuple, p: int) -> list[tuple]:
    """Berlekamp's Q-matrix: the rows t^{ip} mod f over GF(p), i < deg f.
    As c^p = c in GF(p), h^p mod f = sum_i h_i t^{ip} mod f, so one
    Frobenius step is a matrix-vector product with these rows."""
    tp = _powmod((0, 1), p, f, p)
    rows = [(1,)]
    for _ in range(len(f) - 2):
        rows.append(_divmod(_mul(rows[-1], tp, p), f, p)[1])
    return rows


def _frobenius(h: tuple, rows: list[tuple], p: int) -> tuple:
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return _reduce(out, p)


def _factor_mod(f: tuple, p: int) -> list[tuple]:
    """The monic irreducible factors over GF(p) of a monic squarefree f:
    distinct-degree factorization, each block split by _split.  h runs
    through t^{p^k} modulo the f given; as the blocks found divide f,
    the gcd with what is left of f reads the same block."""
    rows = _frobenius_rows(f, p)
    factors = []
    h = (0, 1)
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _frobenius(h, rows, p)
        g = _gcd(f, _reduce(sub(h, (0, 1)), p), p)
        if len(g) > 1:
            factors += _split(g, k, p)
            f, rem = _divmod(f, g, p)
            if rem:
                raise InternalConsistencyError(f"DDF factor does not divide mod {p}")
    if len(f) > 1:
        factors.append(f)
    return factors


def _hensel_lift(f: tuple, g: tuple, p: int, m: int) -> tuple:
    """The monic factor of f modulo m (a power of p) congruent to g modulo
    p, where g is a monic irreducible factor of f mod p coprime to f/g.

    Linear lifting: with f = g H + r modulo q p and r = 0 mod q, the lift
    is g + q (r/q) H^{-1} mod g, where H = f/g mod p stays fixed."""
    inv = _inverse(_divmod(f, g, p)[0], g, p)
    q = p
    while q < m:
        r = _divmod(f, g, q * p)[1]
        dg = _divmod(_mul([c // q for c in r], inv, p), g, p)[1]
        g = add(g, [q * b for b in dg])
        q *= p
    return g


def _zassenhaus(f: tuple) -> list[tuple]:
    """The monic irreducible factors of a monic squarefree f of degree at
    least 1."""
    n = len(f) - 1
    p = n * n + 1
    while not (
        all(p % d for d in range(2, math.isqrt(p) + 1))
        and len(_gcd(f, derivative(f), p)) == 1
    ):
        p += 1
    pieces = _factor_mod(_reduce(f, p), p)
    if len(pieces) == 1:
        return [f]
    h = n // 2
    bound = math.comb(h, h // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= 2 * bound:
        m *= p
    lifted = [_hensel_lift(f, g, p, m) for g in pieces]
    if _product(lifted, m) != _reduce(f, m):
        raise InternalConsistencyError(f"Hensel lift of {f} fails mod {m}")
    # Of two complementary products, one has degree at most half of what
    # is left of f, but it may take more than half of the pieces: sizes run
    # up to all pieces but one.
    found = []
    size = 1
    while size < len(lifted):
        for combo in itertools.combinations(range(len(lifted)), size):
            if 2 * sum(len(lifted[i]) - 1 for i in combo) <= len(f) - 1:
                g = _product((lifted[i] for i in combo), m)
                g = trim(c - m if 2 * c > m else c for c in g)
                if divides(g, f):
                    found.append(g)
                    f = exact_div(f, g)
                    lifted = [x for i, x in enumerate(lifted) if i not in combo]
                    break
        else:
            size += 1
    return [*found, f]


def factors(f: tuple) -> list[tuple] | None:
    """The monic irreducible factors over the rationals of a monic integer
    polynomial f, by degree and then coefficients, or None when f has a
    repeated root; the constant 1 has none.  Their product is checked to
    be f."""
    if not f or f[-1] != 1:
        raise ValueError(f"factorization requires a monic polynomial, got {f}")
    if not poly_squarefree(f):
        return None
    if len(f) > 1 and f[0] == 0:
        found, rest = [(0, 1)], f[1:]
    else:
        found, rest = [], f
    if len(rest) > 1:
        found += _zassenhaus(rest)
    product = (1,)
    for g in found:
        product = mul(product, g)
    if product != f:
        raise InternalConsistencyError(f"the factors {found} multiply to {product}, not {f}")
    return sorted(found, key=lambda g: (len(g), g))


def is_irreducible(f: tuple) -> bool:
    """Irreducibility over the rationals for a monic integer polynomial."""
    return len(f) > 1 and factors(f) == [f]
