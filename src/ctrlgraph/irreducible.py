"""Bounded irreducibility testing for monic integer polynomials.

Not a general factorization engine: the decision method is the classic
evaluation/divisor-combination search (degree-limited, monic factors), with
a factorization-degree screen modulo small primes bolted on front.  The
screen is sound: an integer factor of degree d forces a subset of the mod-p
factor degrees to sum to d for every prime p not dividing the discriminant
structure, so degrees ruled out mod p never need the divisor search at all.
"""

from __future__ import annotations

import itertools

from .errors import InternalConsistencyError
from .polys import IntPoly, interpolate_fractions, poly_squarefree

IRREDUCIBILITY_BOUND = 12

_SCREEN_PRIMES = (2, 3, 5, 7, 11, 13)


# -- GF(p) polynomial helpers (coefficient lists, low degree first) --------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int], p: int):
    a = a[:]
    q = [0] * max(len(a) - len(b) + 1, 1)
    binv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * binv % p
        off = len(a) - len(b)
        q[off] = c
        if c:
            for i, x in enumerate(b):
                a[off + i] = (a[off + i] - c * x) % p
        a.pop()
    return _gf_trim(q), _gf_trim(a)


def _gf_mod(a: list[int], b: list[int], p: int) -> list[int]:
    return _gf_divmod(a, b, p)[1]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _gf_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_mod(out, f, p)


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_mod(a[:], f, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, p)
        base = _gf_mulmod(base, base, f, p)
        e >>= 1
    return result


def _gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _gf_trim(out)


def _ddf_degrees(f: list[int], p: int) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of a monic
    squarefree polynomial over GF(p), by distinct-degree factorization."""
    fstar = f[:]
    degrees: list[int] = []
    h = _gf_mod([0, 1], fstar, p)
    k = 0
    while len(fstar) - 1 >= 2 * (k + 1):
        k += 1
        h = _gf_powmod(h, p, fstar, p)
        g = _gf_gcd(fstar, _gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            degrees.extend([k] * ((len(g) - 1) // k))
            fstar, rem = _gf_divmod(fstar, g, p)
            if rem:
                raise InternalConsistencyError(f"DDF factor does not divide mod {p}")
            h = _gf_mod(h, fstar, p)
    if len(fstar) > 1:
        degrees.append(len(fstar) - 1)
    return degrees


def _subset_sums(degrees: list[int], limit: int) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums if s + d <= limit}
    return sums


def _modp_feasible_degrees(f: IntPoly, limit: int) -> set[int]:
    """Factor degrees 1..limit not excluded by any usable screen prime."""
    feasible = set(range(1, limit + 1))
    for p in _SCREEN_PRIMES:
        if f.leading() % p == 0:
            continue
        fp = [c % p for c in f.coeffs]
        dfp = [c % p for c in f.derivative().coeffs]
        _gf_trim(dfp)
        if not dfp or len(_gf_gcd(fp[:], dfp, p)) > 1:
            continue  # f mod p not squarefree: pattern unusable
        pattern = _ddf_degrees(fp, p)
        feasible &= _subset_sums(pattern, limit)
        if not feasible:
            break
    feasible.discard(0)
    return feasible


def _signed_divisors(m: int) -> list[int]:
    m = abs(m)
    divs = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            divs.append(d)
            if d != m // d:
                divs.append(m // d)
        d += 1
    divs.sort()
    return [s * d for d in divs for s in (1, -1)]


def _kronecker_has_factor(f: IntPoly, d: int) -> bool:
    """Search for a monic integer factor of degree d by divisor combinations.

    A monic degree-d polynomial is pinned down by its values at d points,
    and each value must divide f at that point.
    """
    points = []
    for c in itertools.chain.from_iterable((k, -k) for k in range(f.degree + 2)):
        if c in points:
            continue
        if f.evaluate(c) != 0:
            points.append(c)
        if len(points) == d:
            break
    divisor_lists = [_signed_divisors(f.evaluate(c)) for c in points]
    for combo in itertools.product(*divisor_lists):
        # candidate g with g(c_i) = combo[i]; g - t^d is pinned by d values
        lower_vals = [val - c**d for val, c in zip(combo, points)]
        coeffs = interpolate_fractions(points, lower_vals)
        if any(x.denominator != 1 for x in coeffs):
            continue
        g = IntPoly([int(x) for x in coeffs] + [1])
        if g.divides(f):
            return True
    return False


def is_irreducible(f: IntPoly, bound: int = IRREDUCIBILITY_BOUND) -> bool:
    """Irreducibility over the rationals for a monic integer polynomial."""
    if f.is_zero or f.is_constant:
        return False
    if f.leading() != 1:
        raise ValueError("irreducibility test requires a monic polynomial")
    if f.degree > bound:
        raise ValueError(f"irreducibility test capped at degree {bound}")
    if f.degree == 1:
        return True
    if not poly_squarefree(f):
        return False
    # integer roots (monic, so all rational roots are integers)
    if f[0] == 0:
        return False
    if any(f.evaluate(r) == 0 for r in _signed_divisors(f[0])):
        return False
    limit = f.degree // 2
    feasible = sorted(_modp_feasible_degrees(f, limit))
    for d in feasible:
        if d == 1:
            continue  # integer roots already excluded
        if _kronecker_has_factor(f, d):
            return False
    return True
