"""Dense exact matrices over the rationals.

Entries are Python ints or Fractions (ints are kept as ints so the common
all-integer case stays on the fast path).  Rank and determinants use
fraction-free Bareiss elimination.  The characteristic polynomial and the
adjugate of tI - A come together from one integer Faddeev-LeVerrier pass
over the rows of A, as phi(t) and the coefficient matrices B_k of
adj(tI - A) = sum B_k t^k; the pass keeps no state, so its caller holds on
to the result and passes it down.
"""

from __future__ import annotations

from fractions import Fraction
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


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free Bareiss elimination of a copy of rows.

    Returns (rank, sign of the row swaps, last pivot); for a square matrix
    of full rank, sign * last pivot is the determinant.
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
            for c in range(col + 1, ncols):
                rr[c] = (rr[c] * p - f * pr[c]) // prev
            rr[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev


def int_rank(rows: list[list[int]], ncols: int | None = None) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    if not rows:
        return 0
    return _bareiss(rows, len(rows[0]) if ncols is None else ncols)[0]


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    rank, sign, last = _bareiss(rows, n)
    return sign * last if rank == n else 0


def mat_rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals (rows scaled to integers first)."""
    return int_rank([clear_denominators(m.row(i))[0] for i in range(m.rows)], m.cols)


def _gauss_jordan(m: ExactMatrix, rhs: Sequence[Sequence]) -> list[list[Fraction]]:
    """X with m X = R, for the rows of R given as rhs (k entries each);
    raises ValueError on a singular matrix."""
    if not m.is_square:
        raise ValueError("square matrix required")
    n = m.rows
    if len(rhs) != n:
        raise ValueError("shape mismatch")
    aug = [
        [Fraction(e) for e in m.row(i)] + [Fraction(x) for x in rhs[i]]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        ac = aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                ar = aug[r]
                for c in range(col, len(ac)):
                    ar[c] -= f * ac[c]
    return [r[n:] for r in aug]


def solve(m: ExactMatrix, b: Sequence) -> list[Fraction]:
    """Solve m x = b exactly; raises ValueError on a singular matrix."""
    return [r[0] for r in _gauss_jordan(m, [[e] for e in b])]


def inverse(m: ExactMatrix) -> ExactMatrix:
    rows = _gauss_jordan(m, ExactMatrix.identity(m.rows).row_lists())
    return ExactMatrix(m.rows, m.rows, [x for r in rows for x in r])


def adjugate_samples(rows: Sequence[Sequence]) -> tuple:
    """(phi, (B_0, ..., B_{n-1})) for a square integer matrix A given by its
    rows, where phi = det(tI - A) and adj(tI - A) = sum_k B_k t^k, each B_k
    a tuple of integer rows.  Integral Fractions are accepted.

    One integer Faddeev-LeVerrier pass: M_1 = I; for j = 1..n:
    c_{n-j} = -tr(A M_j)/j, B_{n-j} = M_j and M_{j+1} = A M_j + c_{n-j} I.
    Each division by j is exact over the integers and M_{n+1} = 0
    (Cayley-Hamilton); both are checked.  The name is kept because the
    benchmark's tracer (perfbench/spans.py) looks it up by name.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("adjugate of a non-square matrix")
    if not all(
        isinstance(x, (int, Fraction)) and x.denominator == 1 for r in rows for x in r
    ):
        raise ValueError("integer matrix required")
    nonzero = [[(k, int(x)) for k, x in enumerate(r) if x] for r in rows]
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


def char_poly(rows: Sequence[Sequence]) -> IntPoly:
    """det(tI - A) for a square integer matrix A given by its rows."""
    return adjugate_samples(rows)[0]


def bilinear_numerator_fractions(bs: Sequence, y: Sequence, z: Sequence) -> tuple:
    """Coefficients (low first, dim many) of y^T adj(tI - A) z, from the B_k
    of adjugate_samples: ints for integer vectors, Fractions otherwise."""
    n = len(bs)
    if len(y) != n or len(z) != n:
        raise ValueError("shape mismatch")
    ys = [(i, a) for i, a in enumerate(y) if a]
    zs = [(j, b) for j, b in enumerate(z) if b]
    return tuple(sum(a * bk[i][j] * b for i, a in ys for j, b in zs) for bk in bs)


def bilinear_numerator_poly(bs: Sequence, y: Sequence, z: Sequence) -> IntPoly:
    coeffs, d = clear_denominators(bilinear_numerator_fractions(bs, y, z))
    if d != 1:
        raise ValueError("numerator polynomial is not integral")
    return IntPoly(coeffs)
