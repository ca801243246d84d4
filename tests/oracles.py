"""Independent brute-force oracles the fast implementations are checked
against.  Deliberately naive: cofactor expansion, plain Fraction
elimination, repeated matrix powers."""

from fractions import Fraction


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(rows):
    """adj(M)[i][j] = (-1)^(i+j) det(M with row j and column i removed)."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j)
            * cofactor_det(
                [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def naive_rank(rows):
    """Gaussian elimination over Fractions with first-nonzero pivoting."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pr[col]
                m[r] = [a - f * b for a, b in zip(m[r], pr)]
        rank += 1
    return rank


def charpoly_at(rows, c):
    """det(cI - M) by cofactor expansion."""
    n = len(rows)
    shifted = [
        [c - rows[i][j] if i == j else -rows[i][j] for j in range(n)] for i in range(n)
    ]
    return cofactor_det(shifted)


def mat_power_vec(rows, vec, k):
    v = list(vec)
    for _ in range(k):
        v = [sum(r[j] * v[j] for j in range(len(v))) for r in rows]
    return v
