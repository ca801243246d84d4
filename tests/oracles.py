"""Independent brute-force oracles the fast implementations are checked
against.  Deliberately naive: cofactor expansion, plain Fraction
elimination, repeated matrix powers; the Faddeev-LeVerrier pass on lists
of entries, which the packed pass `matrices.adjugate_samples` replaced;
plus the pole and root counts that only tests read, the former read of
phi_S from the B_k of the adjugate pass, and the per-pair report that
`full_reports` must match."""

from fractions import Fraction

from ctrlgraph.census import all_subsets
from ctrlgraph.control import (
    ControllabilityReport,
    PairSpec,
    graph_char_poly,
    is_controllable_rank,
    is_vertex_controllable,
    numerator_coeffs,
    vertex_deleted_char_polys,
    walk_matrix_rank,
)
from ctrlgraph.graphs import covering_radius
from ctrlgraph.polys import (
    derivative,
    exact_div,
    mul,
    poly_gcd,
    primitive,
    reduce_ratio,
    trim,
)


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


def naive_power_rank(rows):
    """Rank of I, M, ..., M^{n-1}, each flattened to one row, by repeated
    matrix products and naive_rank."""
    n = len(rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    flat = []
    for _ in range(n):
        flat.append([x for r in power for x in r])
        power = [
            [sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return naive_rank(flat)


def subset_count_by_rank(g):
    """Controllable subsets of g, empty one included, by one walk matrix
    built and ranked per subset."""
    return sum(
        is_controllable_rank(PairSpec.from_subset(g, s)) for s in all_subsets(g.v)
    )


def list_adjugate(rows):
    """(phi, (B_0, ..., B_{n-1})) with adj(tI - A) = sum_k B_k t^k, by the
    integer Faddeev-LeVerrier pass on lists of entries: M_1 = I;
    c_{n-j} = -tr(A M_j)/j, B_{n-j} = M_j, M_{j+1} = A M_j + c_{n-j} I."""
    n = len(rows)
    coeffs = [0] * n + [1]
    bs = [None] * n
    nonzero = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(1, n + 1):
        am = []
        for nz in nonzero:
            acc = [0] * n
            for k, x in nz:
                acc = [s + x * e for s, e in zip(acc, m[k])]
            am.append(acc)
        c, rem = divmod(-sum(am[i][i] for i in range(n)), j)
        assert rem == 0, "trace not divisible"
        coeffs[n - j] = c
        bs[n - j] = tuple(map(tuple, m))
        for i in range(n):
            am[i][i] += c
        m = am
    assert not any(map(any, m)), "Cayley-Hamilton"
    return tuple(coeffs), tuple(bs)


def adjugate_numerator(bs, y, z):
    """Coefficients (low first, n many) of y^T adj(tI - A) z, read entry
    by entry from the B_k of adj(tI - A) = sum_k B_k t^k."""
    n = len(bs)
    if len(y) != n or len(z) != n:
        raise ValueError("shape mismatch")
    return tuple(
        sum(y[i] * bk[i][j] * z[j] for i in range(n) for j in range(n)) for bk in bs
    )


def reference_report(p):
    """The report of one pair with every quantity computed on its own: a
    fresh walk matrix, phi_S read from the B_k of a fresh adjugate pass and
    gcd(phi_S, phi) by the primitive PRS, and the covering radius by its
    own BFS."""
    v = p.graph.v
    rank = walk_matrix_rank(p)
    phi, bs = list_adjugate(p.graph.rows)
    phi_s = trim(adjugate_numerator(bs, p.vector, p.vector))
    verdicts = {"rank": rank == v, "poles": len(poly_gcd(phi_s, phi)) == 1}
    if p.subset is not None and len(p.subset) == 1:
        verdicts["coprime"] = is_vertex_controllable(p.graph, p.subset[0])
    radius = None
    covrad_ok = None
    if p.subset is not None:
        radius = covering_radius(p.graph, p.subset)
        if p.subset and radius != float("inf"):
            covrad_ok = radius <= rank - 1
    return ControllabilityReport(
        v=v,
        subset=p.subset,
        rank_of_w=rank,
        support_size=rank,
        dual_degree=rank - 1,
        covering_radius=radius,
        controllable=rank == v,
        verdicts=verdicts,
        covrad_bound_ok=covrad_ok,
        degenerate=all(x == 0 for x in p.vector),
    )


def vertex_count_by_gcd(g):
    """Controllable vertices of g: those u with phi(X minus u) coprime to
    phi(X), by one primitive-PRS gcd per vertex."""
    phi = graph_char_poly(g)
    return sum(len(poly_gcd(d, phi)) == 1 for d in vertex_deleted_char_polys(g))


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


def divmod_fractions(a, d):
    """Quotient and remainder of the coefficient lists a by d (low degree
    first, d with a nonzero leading entry) by plain Fraction long division."""
    rem = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(len(a) - len(d) + 1, 1)
    for k in range(len(rem) - len(d), -1, -1):
        c = rem[k + len(d) - 1] / d[-1]
        if c:
            q[k] = c
            for j, b in enumerate(d):
                rem[k + j] -= c * b
    return q, rem


def evaluate(f, x):
    """f(x) by Horner's rule, for a coefficient tuple f."""
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def poly_from_roots(roots):
    p = (1,)
    for r in roots:
        p = mul(p, (-r, 1))
    return p


def squarefree_part(f):
    """f with repeated roots collapsed to simple ones: f / gcd(f, f')."""
    if not f:
        raise ValueError("squarefree part of the zero polynomial")
    if len(f) == 1:
        return (1,)
    return primitive(exact_div(f, poly_gcd(f, derivative(f))))


def distinct_root_count(f):
    """Number of distinct complex roots: degree of the squarefree part."""
    return len(squarefree_part(f)) - 1


def distinct_pole_count(num, den):
    """Distinct roots of the denominator of num/den after cancellation."""
    _, den = reduce_ratio(num, den)
    if len(den) == 1:
        return 0
    return distinct_root_count(den)


def pair_rational_function(p):
    """z^T (tI-A)^{-1} z as an exact (num, den) pair of integer polynomials."""
    return numerator_coeffs(p), graph_char_poly(p.graph)


# Graphs as plain edge sets: pairs (i, j) with i < j.


def edge_set(pairs):
    return {(min(a, b), max(a, b)) for a, b in pairs}


def naive_adjacency(v, edges):
    return [[int((min(i, j), max(i, j)) in edges) for j in range(v)] for i in range(v)]


def naive_degrees(v, edges):
    return [sum(u in e for e in edges) for u in range(v)]


def naive_laplacian(v, edges):
    deg = naive_degrees(v, edges)
    adj = naive_adjacency(v, edges)
    return [[deg[i] if i == j else -adj[i][j] for j in range(v)] for i in range(v)]


def naive_complement(v, edges):
    return {(i, j) for i in range(v) for j in range(i + 1, v)} - edges


def naive_delete_vertex(edges, u):
    return {(a - (a > u), b - (b > u)) for a, b in edges if u not in (a, b)}


def naive_relabel(edges, perm):
    return edge_set((perm[a], perm[b]) for a, b in edges)


def naive_path_extension(edges, members, k):
    """Path 0-1-...-(k-1), vertex k-1 joined to each member, old i -> i+k
    (k = 1 is the cone)."""
    return (
        {(a + k, b + k) for a, b in edges}
        | {(i, i + 1) for i in range(k - 1)}
        | {(k - 1, u + k) for u in members}
    )
