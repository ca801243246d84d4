"""Dense exact matrices over the rationals.

Entries are Python ints or Fractions (ints are kept as ints so the common
all-integer case stays on the fast path).  Rank and determinants use
fraction-free Bareiss elimination.  The characteristic polynomial and the
adjugate of tI - A come together from one integer Faddeev-LeVerrier pass,
as phi(t) and the coefficient matrices B_k of adj(tI - A) = sum B_k t^k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import InternalConsistencyError
from .polys import IntPoly


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(
            isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1)
            for e in self.entries
        )

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(Fraction(e) for e in self.entries)))

    def __repr__(self):
        return f"ExactMatrix.from_rows({self.row_lists()!r})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a = self.row_lists()
        bt = other.transpose().row_lists()
        flat = []
        for r in a:
            for c in bt:
                flat.append(sum(x * y for x, y in zip(r, c)))
        return ExactMatrix(self.rows, other.cols, flat)

    def matvec(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [
            sum(self.at(i, j) * v[j] for j in range(self.cols))
            for i in range(self.rows)
        ]


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Scale each row to integers (rank is unaffected by row scaling)."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        d = lcm(*(Fraction(e).denominator for e in row)) if row else 1
        out.append([int(Fraction(e) * d) for e in row])
    return out


def int_rank(rows: list[list[int]], ncols: int | None = None) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    nrows = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            rr = rows[r]
            pr = rows[rank]
            for c in range(col + 1, ncols):
                rr[c] = (rr[c] * p - f * pr[c]) // prev
            rr[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, n):
            f = m[r][col]
            rr = m[r]
            pr = m[col]
            for c in range(col + 1, n):
                rr[c] = (rr[c] * p - f * pr[c]) // prev
            rr[col] = 0
        prev = p
    return sign * m[n - 1][n - 1]


def mat_rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    return int_rank(_integer_rows(m), m.cols)


def mat_det(m: ExactMatrix):
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if m.is_integer():
        return int_det([[int(Fraction(e)) for e in m.row(i)] for i in range(m.rows)])
    # scale rows to integers and divide the scale factors back out
    scale = Fraction(1)
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        d = lcm(*(Fraction(e).denominator for e in row))
        scale *= d
        rows.append([int(Fraction(e) * d) for e in row])
    return Fraction(int_det(rows)) / scale

def solve(m: ExactMatrix, b: Sequence) -> list[Fraction]:
    """Solve m x = b exactly; raises ValueError on a singular matrix."""
    if not m.is_square:
        raise ValueError("solve requires a square matrix")
    n = m.rows
    if len(b) != n:
        raise ValueError("shape mismatch")
    aug = [[Fraction(e) for e in m.row(i)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / p
                ar, ac = aug[r], aug[col]
                for c in range(col, n + 1):
                    ar[c] -= f * ac[c]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def inverse(m: ExactMatrix) -> ExactMatrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [
        [Fraction(e) for e in m.row(i)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                ar, ac = aug[r], aug[col]
                for c in range(col, 2 * n):
                    ar[c] -= f * ac[c]
    flat = []
    for i in range(n):
        flat.extend(aug[i][n:])
    return ExactMatrix(n, n, flat)


ADJUGATE_CACHE_SIZE = 8


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def _faddeev_leverrier(rows: tuple) -> tuple:
    """(phi, (B_0, ..., B_{n-1})) with adj(tI - A) = sum_k B_k t^k.

    M_1 = I; for j = 1..n: c_{n-j} = -tr(A M_j)/j, B_{n-j} = M_j and
    M_{j+1} = A M_j + c_{n-j} I.  Each division by j is exact over the
    integers and M_{n+1} = 0 (Cayley-Hamilton); both are checked.  The
    cache is bounded so that memory stays flat on long graph6 streams.
    """
    n = len(rows)
    nonzero = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
    coeffs = [0] * n + [1]
    bs = [None] * n
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(1, n + 1):
        am = []
        for nz in nonzero:
            acc = [0] * n
            for k, x in nz:
                acc = [s + x * e for s, e in zip(acc, m[k])]
            am.append(acc)
        c, rem = divmod(-sum(am[i][i] for i in range(n)), j)
        if rem:
            raise InternalConsistencyError(
                f"Faddeev-LeVerrier trace not divisible by {j}"
            )
        coeffs[n - j] = c
        bs[n - j] = tuple(tuple(r) for r in m)
        for i in range(n):
            am[i][i] += c
        m = am
    if any(any(r) for r in m):
        raise InternalConsistencyError("Cayley-Hamilton check failed: phi(A) != 0")
    return IntPoly(coeffs), tuple(bs)


def adjugate_samples(m: ExactMatrix) -> tuple:
    """(phi, (B_0, ..., B_{n-1})) for a square integer matrix m, where
    phi = det(tI - m) and adj(tI - m) = sum_k B_k t^k, each B_k a tuple of
    integer rows.

    One integer Faddeev-LeVerrier pass.  The name is kept because the
    benchmark's tracer (perfbench/spans.py) looks it up by name.
    """
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    if not m.is_integer():
        raise ValueError("integer matrix required")
    rows = tuple(tuple(int(e) for e in m.row(i)) for i in range(m.rows))
    return _faddeev_leverrier(rows)


def char_poly(m: ExactMatrix) -> IntPoly:
    """det(tI - m) for a square integer matrix, exact and monic."""
    return adjugate_samples(m)[0]


def bilinear_numerator_fractions(m: ExactMatrix, y: Sequence, z: Sequence) -> tuple:
    """Coefficients (low first, dim many) of y^T adj(tI - m) z: ints for
    integer vectors, Fractions otherwise."""
    n = m.rows
    if len(y) != n or len(z) != n:
        raise ValueError("shape mismatch")
    ys = [(i, a) for i, a in enumerate(y) if a]
    zs = [(j, b) for j, b in enumerate(z) if b]
    _, bs = adjugate_samples(m)
    return tuple(sum(a * bk[i][j] * b for i, a in ys for j, b in zs) for bk in bs)


def bilinear_numerator_poly(m: ExactMatrix, y: Sequence, z: Sequence) -> IntPoly:
    coeffs = bilinear_numerator_fractions(m, y, z)
    if any(Fraction(c).denominator != 1 for c in coeffs):
        raise ValueError("numerator polynomial is not integral")
    return IntPoly(int(c) for c in coeffs)
