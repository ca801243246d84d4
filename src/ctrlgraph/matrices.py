"""Exact matrix kernels over the rationals.

A matrix is a sequence of rows, the one matrix format of the library; every
matrix returned here is a tuple of row tuples, so results compare with ==.
Entries are Python ints; `mat_rank`, `solve` and `inverse` also take
Fractions, which `clear_denominators` scales away row by row, and `solve`
and `inverse` return Fractions.  Fraction-free Bareiss elimination is the
one row reduction: it gives rank and determinant, and `solve` and
`inverse` run it on the integer rows of (m | R) before an integer back
substitution.  The characteristic polynomial and the diagonal of the
adjugate of tI - A come together from one integer Faddeev-LeVerrier pass
over the integer rows of A, as phi(t) and the diagonals of the
coefficient matrices B_k of adj(tI - A) = sum B_k t^k; phi is a
coefficient tuple, low degree first, in the polynomial format of `polys`.
The pass holds each row of its matrices as one integer of fixed-width
signed slots (Kronecker substitution), each width taken from a proven
bound on the entries.  The pass keeps no state, so its caller holds on
to the result and passes it down.  A numerator y^T adj(tI - A) z needs
no B_k: `bilinear_numerator_fractions` reads it from phi and the Krylov
columns of z.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import InternalConsistencyError


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(rows: Sequence[Sequence]) -> tuple:
    return tuple(zip(*rows))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    if any(len(r) != len(b) for r in a):
        raise ValueError("shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in bt) for r in a)


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> list:
    if any(len(r) != len(v) for r in rows):
        raise ValueError("shape mismatch")
    return [sum(x * y for x, y in zip(r, v)) for r in rows]


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, d): the least d > 0 with every values[i] * d an integer, and
    those integers.  Reads .numerator/.denominator, which ints have too, so
    integer input builds no Fraction."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def krylov_columns(rows: Sequence[Sequence], z: Sequence, count: int) -> list[list]:
    """The Krylov (walk) columns z, Az, ..., A^{count-1}z of the matrix A
    with the given rows; each row is walked over its nonzero entries only."""
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    cols = [list(z)] if count else []
    for _ in range(count - 1):
        prev = cols[-1]
        cols.append([sum(x * prev[j] for j, x in nz) for nz in nonzero])
    return cols


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, int, int, list]:
    """Fraction-free Bareiss elimination of a copy of rows, pivoting in the
    first ncols columns and carrying any further columns along.

    Returns (rank, sign of the row swaps, last pivot, eliminated rows); for
    a square matrix of full rank, sign * last pivot is the determinant.
    Every entry stays a minor of the input, so each division is exact.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        p = m[rank][col]
        pr = m[rank]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            rr = m[r]
            for c in range(col + 1, len(rr)):
                rr[c] = (rr[c] * p - f * pr[c]) // prev
            rr[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev, m


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    return _bareiss(rows, len(rows[0]))[0] if rows else 0


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    rank, sign, last, _ = _bareiss(rows, n)
    return sign * last if rank == n else 0


def mat_rank(m: Sequence[Sequence]) -> int:
    """Exact rank over the rationals (rows scaled to integers first)."""
    return int_rank([clear_denominators(r)[0] for r in m])


def _bareiss_solve(m: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list]:
    """X with m X = R, for the rows of R given as rhs; raises ValueError on
    a singular matrix.  Bareiss on the integer rows of (m | R), each row
    cleared on its own, leaves U X = Y with U triangular; d X is integral
    for the last pivot d (Cramer), so back substitution runs on d X."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("square matrix required")
    if len(rhs) != n:
        raise ValueError("shape mismatch")
    aug = [clear_denominators([*r, *b])[0] for r, b in zip(m, rhs)]
    rank, _, d, u = _bareiss(aug, n)
    if rank < n:
        raise ValueError("singular matrix")
    dx = [None] * n
    for i in range(n - 1, -1, -1):
        ui = u[i]
        acc = [d * y for y in ui[n:]]
        for j in range(i + 1, n):
            if ui[j]:
                acc = [a - ui[j] * x for a, x in zip(acc, dx[j])]
        dx[i] = [a // ui[i] for a in acc]
    return [[Fraction(x, d) for x in r] for r in dx]


def solve(m: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve m x = b exactly; raises ValueError on a singular matrix."""
    return [r[0] for r in _bareiss_solve(m, [[e] for e in b])]


def inverse(m: Sequence[Sequence]) -> tuple:
    return tuple(map(tuple, _bareiss_solve(m, identity(len(m)))))


def adjugate_samples(rows: Sequence[Sequence]) -> tuple:
    """(phi, (D_0, ..., D_{n-1})) for a square integer matrix A given by
    its rows, where phi = det(tI - A) is a coefficient tuple, low degree
    first, and D_k is the diagonal of B_k in adj(tI - A) = sum_k B_k t^k,
    so that (adj(tI - A))_uu = sum_k D_k[u] t^k is det(tI - A) with row
    and column u deleted.  A rational A is scaled to integers by its
    caller (`clear_denominators`).

    One integer Faddeev-LeVerrier pass: M_1 = I; for j = 1..n:
    c_{n-j} = -tr(A M_j)/j, B_{n-j} = M_j and M_{j+1} = A M_j + c_{n-j} I.
    Each division by j is exact over the integers and M_{n+1} = 0
    (Cayley-Hamilton); both are checked.  Each row of M_j is one integer
    (Kronecker substitution): entry k sits in slot k, a signed b-bit
    field, so row i of A M_j is sum_k a_ik (row k of M_j), one big-int
    product and sum per nonzero a_ik, and the diagonal of A M_j, which
    gives the trace and the diagonal of M_{j+1}, is read slot by slot.

    The slot width comes from a bound, never from the values.  With
    a = max(1, max |a_ij|), a coefficient of phi is a signed sum of at
    most C(n, k) <= 2^n principal minors of A, and an entry of B_k one of
    at most C(n-1, k) <= 2^(n-1) minors of A of order m < n; by Hadamard
    each minor is at most (sqrt(m) a)^m <= (n a)^n.  An entry of A M_j is
    one of M_{j+1} - c_{n-j} I, so every slot ever stored holds less
    than H = 2^(n+1) (n a)^n in absolute value, and b = bit length of
    H, plus one for the sign, keeps it below 2^(b-1).  The name is kept
    because the benchmark's tracer (perfbench/spans.py) looks it up by
    name.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("adjugate of a non-square matrix")
    if not all(isinstance(x, int) for r in rows for x in r):
        raise ValueError("integer matrix required")
    a = max((abs(x) for r in rows for x in r), default=1) or 1
    b = ((n * a) ** n << n + 1).bit_length() + 1
    half, mask = 1 << b - 1, (1 << b) - 1
    shifts = [b * i for i in range(n)]
    # round away the slots below slot i, so a negative lower part borrows nothing
    rounding = [(1 << s) >> 1 for s in shifts]
    nonzero = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
    coeffs = [0] * n + [1]
    diagonals = [None] * n
    m = [1 << s for s in shifts]  # the rows of M_1 = I
    diagonal = [1] * n
    for j in range(1, n + 1):
        am = [sum(x * m[k] for k, x in nz) for nz in nonzero]
        am_diagonal = [
            ((r + h >> s) + half & mask) - half for r, s, h in zip(am, shifts, rounding)
        ]
        c, rem = divmod(-sum(am_diagonal), j)
        if rem:
            raise InternalConsistencyError(
                f"Faddeev-LeVerrier trace not divisible by {j}"
            )
        coeffs[n - j] = c
        diagonals[n - j] = tuple(diagonal)
        m = [r + (c << s) for r, s in zip(am, shifts)]
        diagonal = [x + c for x in am_diagonal]
    if any(m):
        raise InternalConsistencyError("Cayley-Hamilton check failed: phi(A) != 0")
    return tuple(coeffs), tuple(diagonals)


def char_poly(rows: Sequence[Sequence]) -> tuple:
    """det(tI - A) for a square integer matrix A given by its rows."""
    return adjugate_samples(rows)[0]


def bilinear_numerator_fractions(
    phi: Sequence[int], y: Sequence, cols: Sequence[Sequence]
) -> tuple:
    """Coefficients (low first, n many) of y^T adj(tI - A) z, from
    phi = det(tI - A) and the Krylov columns z, Az, ..., A^{n-1}z of z.

    adj(tI - A) = phi(t) (tI - A)^{-1} = phi(t) sum_k A^k t^{-k-1}, and the
    product is a polynomial, so coefficient m is sum_k phi[m+k+1] y.A^k z:
    one dot product per column and one convolution, with no B_k.  The name
    is kept because the benchmark's tracer (perfbench/spans.py) looks it up
    by name.
    """
    n = len(cols)
    if len(phi) != n + 1 or len(y) != n or any(len(c) != n for c in cols):
        raise ValueError("shape mismatch")
    walks = [sum(map(mul, y, c)) for c in cols]
    return tuple(sum(map(mul, phi[m + 1 :], walks)) for m in range(n))
