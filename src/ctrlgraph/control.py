"""Walk matrices and the controllability characterizations.

A pair is a graph together with a vector z (usually the characteristic
vector of a vertex subset).  The pair is controllable when the walk matrix
(z Az ... A^{v-1}z) is invertible; equivalently when the rational function
z^T (tI-A)^{-1} z has v distinct poles.  Both routes are implemented and a
disagreement between them is raised as an internal error: their equivalence
is a theorem, so disagreement means a bug here, never odd input.

The census counts read a third route from the factors f_i of phi over the
rationals: with phi squarefree and h_i = phi / f_i, the pair is
controllable iff h_i(A) z != 0 for every i (`controllable_subset_count`),
and a vertex u is iff no f_i divides phi(X minus u).

Both subset engines read the powers of A from `packed_powers`, one
`krylov_columns` call on the packed identity, in which each row of A^k is
one integer.

`full_reports` builds the reports of many pairs of one graph in one pass:
each subset's walk matrix summed from its members' walks W(e_u)
(`vertex_walks`), phi_S read from phi and those walk columns, and every
report checked for rank W(z) = v - deg gcd(phi_S, phi).  That degree is
deg d, for d = gcd(phi, phi'), plus deg f_i for each irreducible factor f_i
of A's minimal polynomial phi / d with d f_i dividing phi_S; d and the f_i
are found once per call (`irreducible.factors`).  `full_report` is its
one-pair call, which is never factored: it takes one `poly_gcd(phi_S, phi)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from . import irreducible
from .errors import InternalConsistencyError
from .graphs import Graph, check_subset, cone, covering_radius, distances_from
from .matrices import (
    adjugate_samples,
    bilinear_numerator_fractions,
    int_rank,
    krylov_columns,
    transpose,
)
from .polys import derivative, divides, exact_div, mul, poly_gcd, sub, trim

ALGEBRA_CHECK_BOUND = 7

# Graphs whose kernel result is kept: memory stays flat on long streams.
ADJUGATE_CACHE_SIZE = 8


@dataclass(frozen=True)
class PairSpec:
    """A graph plus an integer vector z; the subset is kept when known.
    Scaling z changes no verdict (W(cz) = c W(z), phi_{cz} = c^2 phi_z),
    so a rational z is passed as an integer multiple of itself."""

    graph: Graph
    vector: tuple
    subset: tuple[int, ...] | None = None

    @classmethod
    def from_subset(cls, g: Graph, members: Iterable[int]) -> "PairSpec":
        s = check_subset(g, members)
        vec = tuple(1 if u in s else 0 for u in range(g.v))
        return cls(g, vec, s)

    @classmethod
    def from_vector(cls, g: Graph, vec: Sequence) -> "PairSpec":
        if len(vec) != g.v:
            raise ValueError("vector length must equal vertex count")
        entries = tuple(int(x) for x in vec)
        if entries != tuple(vec):
            raise ValueError("integer vector required")
        subset = None
        if all(x in (0, 1) for x in entries):
            subset = tuple(u for u, x in enumerate(entries) if x)
        return cls(g, entries, subset)


@dataclass(frozen=True)
class ControllabilityReport:
    v: int
    subset: tuple[int, ...] | None
    rank_of_w: int
    support_size: int
    dual_degree: int
    covering_radius: object  # int, or math.inf for empty/unreachable subsets
    controllable: bool
    verdicts: dict = field(compare=False)
    covrad_bound_ok: bool | None = None
    degenerate: bool = False


def walk_columns(p: PairSpec) -> list[list]:
    """Columns z, Az, ..., A^{v-1}z."""
    return krylov_columns(p.graph.rows, p.vector, p.graph.v)


def walk_matrix(p: PairSpec) -> tuple:
    return transpose(walk_columns(p))


def walk_matrix_rank(p: PairSpec) -> int:
    """Rank of W, computed on its columns (rank W = rank W^T)."""
    return int_rank(walk_columns(p))


def is_controllable_rank(p: PairSpec) -> bool:
    return walk_matrix_rank(p) == p.graph.v


def packed_powers(g: Graph, count: int, bits: int) -> list[list[int]]:
    """The powers I, A, ..., A^{count-1} with each row packed into one
    integer: entry [k][u] is sum_j (A^k)_uj 2^(bits j), row u of A^k, which
    is also A^k e_u (A is symmetric).  One `krylov_columns` call on the
    packed identity z_j = 2^(bits j): the kernel is linear, so entry u of
    A^k z is sum_j (A^k)_uj z_j.  A slot of an entry with 0 <= x < 2^bits
    reads back as a shift and a mask; (A^k)_uw counts the walks of length k
    from u to w, at most (v-1)^k of them."""
    return krylov_columns(g.rows, [1 << bits * j for j in range(g.v)], count)


def vertex_walks(g: Graph) -> list[list[list]]:
    """W(e_u) for every vertex u, as its columns e_u, A e_u, ..., unpacked
    from `packed_powers`: A^k e_u is row u of A^k, whose entries, walk
    counts at most (v-1)^k <= (v-1)^(v-1), fit slots as wide as the bit
    length of (v-1)^(v-1).  W(z) is linear in z, so a subset's walk is the
    sum of its members' walks."""
    v = g.v
    bits = ((v - 1) ** (v - 1)).bit_length() if v else 1
    mask = (1 << bits) - 1
    shifts = [bits * j for j in range(v)]
    powers = packed_powers(g, v, bits)
    return [[[r >> s & mask for s in shifts] for r in row] for row in zip(*powers)]


def controllable_subset_count(g: Graph, factors: Sequence[tuple] | None) -> tuple[int, bool]:
    """Number of subsets S, the empty one included, with (X, S) controllable,
    and whether S = V is; `factors` is `char_poly_factors(g)`.

    Every column A^k z of W(z) lies in {p(A) z : deg p < d} for d the degree
    of A's minimal polynomial, the rank of I, A, ..., A^{v-1}; so
    rank W(z) <= d, and when d < v (A has a repeated eigenvalue, that is
    phi is not squarefree) no subset is controllable.  d is read from the
    v x v Gram matrix of those powers, [tr A^(k+l)] (rank M = rank M M^T
    over Q), whose entries sum the diagonal slots of `packed_powers` up to
    A^(2v-2).  Otherwise, with h_i = phi / f_i for the factors f_i of phi,
    (X, z) is controllable iff h_i(A) z != 0 for every i: h_i(A) is zero on
    the eigenspaces of the other factors' roots and invertible on those of
    f_i's, and a rational z orthogonal to one eigenvector of a root of f_i
    is orthogonal to its Galois conjugates, the eigenvectors of every root
    of f_i.  As h_i(A) z is linear in z, each factor's sums are built by
    doubling, indexed by bitmask: from [0], each vertex u appends every sum
    so far plus its packed column h_i(A) e_u = sum_k h_i[k] A^k e_u, which
    is the same sum over the packed rows u of the powers.

    The slots are bits wide for bits the larger of two bit lengths: that of
    (v-1)^(2v-2), above every entry of the powers, and that of
    4v sum_k |h_i[k]| (v-1)^k, above twice every entry of a sum of at most
    v columns h_i(A) e_u, so a signed slot holds it and a sum is zero iff
    every entry is.  At S = V, the last sum, the sums must equal h_i(A) 1
    packed from a list-based walk of 1, and the verdict must match the
    rank of W(1).
    """
    v = g.v
    if v == 0:
        return 1, True  # the empty subset, with an empty, invertible W
    hs = [] if factors is None else [exact_div(graph_char_poly(g), f) for f in factors]
    bits = max(
        [((v - 1) ** (2 * v - 2)).bit_length()]
        + [
            (4 * v * sum(abs(c) * (v - 1) ** k for k, c in enumerate(h))).bit_length()
            for h in hs
        ]
    )
    mask = (1 << bits) - 1
    powers = packed_powers(g, 2 * v - 1, bits)
    traces = [sum(r >> bits * u & mask for u, r in enumerate(col)) for col in powers]
    repeated = int_rank([traces[k : k + v] for k in range(v)]) < v
    if repeated != (factors is None):
        raise InternalConsistencyError(
            "minimal polynomial of degree below v disagrees with the squarefree test of phi"
        )
    if repeated:
        return 0, False

    # h(A) z from the walk columns z, Az, ...; on the powers, the packed
    # columns h(A) e_u
    def apply(h, walk):
        return [sum(c * col[j] for c, col in zip(h, walk)) for j in range(v)]

    def pack(col):
        return sum(x << bits * j for j, x in enumerate(col))

    sums = []  # sums[i][k]: packed h_i(A) z for the subset with bitmask k
    for h in hs:
        s = [0]
        for col in apply(h, powers):
            s += [x + col for x in s]
        sums.append(s)
    ones = krylov_columns(g.rows, [1] * v, v)
    if [s[-1] for s in sums] != [pack(apply(h, ones)) for h in hs]:
        raise InternalConsistencyError(
            "summed vertex walk columns h_i(A) e_u differ from h_i(A) 1"
        )
    whole = all(s[-1] for s in sums)
    if whole != (int_rank(ones) == v):
        raise InternalConsistencyError(
            "factor criterion disagrees with the walk-matrix rank at S = V"
        )
    return sum(map(all, zip(*sums))), whole


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def graph_adjugate(g: Graph) -> tuple:
    """(phi, (D_0, ..., D_{v-1})) of the adjacency matrix, D_k the diagonal
    of B_k in adj(tI - A) = sum_k B_k t^k: the one kernel pass per graph.
    phi and the phi(X minus u) = sum_k D_k[u] t^k are read from it; a
    numerator phi_S is read from phi and the walk of z."""
    return adjugate_samples(g.rows)


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def graph_char_poly(g: Graph) -> tuple:
    """phi(X, t) = det(tI - A)."""
    return graph_adjugate(g)[0]


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def vertex_deleted_char_polys(g: Graph) -> tuple[tuple, ...]:
    """phi(X minus u, t) for every u, read off the adjugate diagonal and
    checked against sum_u phi(X minus u) = phi' (the trace of adj(tI - A)
    is the derivative of det(tI - A))."""
    phi, diagonals = graph_adjugate(g)
    deleted = tuple(trim(d[u] for d in diagonals) for u in range(g.v))
    if tuple(map(sum, zip(*deleted))) != derivative(phi):  # each has degree v - 1
        raise InternalConsistencyError(
            "the phi(X minus u) on the adjugate diagonal do not sum to phi'"
        )
    return deleted


def numerator_coeffs(p: PairSpec) -> tuple:
    """phi_S(X, t), the numerator of z^T (tI-A)^{-1} z over phi(X, t), as
    an integer polynomial read from phi and the walk columns of z."""
    return trim(
        bilinear_numerator_fractions(graph_char_poly(p.graph), p.vector, walk_columns(p))
    )


def is_controllable_poles(p: PairSpec) -> bool:
    """Pole-count characterization: v distinct poles of z^T(tI-A)^{-1}z.

    A is symmetric, so z^T(tI-A)^{-1}z = sum_theta |E_theta z|^2/(t - theta)
    over its distinct eigenvalues: every pole is simple, and v distinct
    poles means gcd(phi_S, phi) = 1 (no squarefree test of phi needed).
    """
    return len(poly_gcd(numerator_coeffs(p), graph_char_poly(p.graph))) == 1


def is_vertex_controllable(g: Graph, u: int) -> bool:
    """Coprimality of phi(X minus u) and phi(X)."""
    if not 0 <= u < g.v:
        raise ValueError(f"vertex {u} out of range")
    deleted = vertex_deleted_char_polys(g)[u]
    return len(poly_gcd(deleted, graph_char_poly(g))) == 1


def char_poly_factors(g: Graph) -> tuple[tuple, ...] | None:
    """The monic irreducible factors of phi over the rationals, or None when
    phi has a repeated root and nothing is controllable."""
    found = irreducible.factors(graph_char_poly(g))
    return None if found is None else tuple(found)


def controllable_vertex_count(g: Graph, factors: Sequence[tuple] | None) -> int:
    """Number of vertices u with (X, u) controllable; `factors` is
    `char_poly_factors(g)`.  u is controllable iff phi(X minus u) is coprime
    to phi, that is iff no factor of phi divides it.  A repeated root of phi
    is a root of every phi(X minus u) too (interlacing), so none is then."""
    if factors is None:
        return 0
    return sum(
        not any(divides(f, deleted) for f in factors)
        for deleted in vertex_deleted_char_polys(g)
    )


def algebra_basis_check(p: PairSpec) -> bool:
    """Do the v^2 matrices A^i z z^T A^j span all v x v matrices?

    Sized v^4, hence the cap; must agree with the rank characterization.
    """
    v = p.graph.v
    if v > ALGEBRA_CHECK_BOUND:
        raise ValueError(
            f"algebra basis check capped at {ALGEBRA_CHECK_BOUND} vertices"
        )
    cols = walk_columns(p)
    rows = [[a * b for a in ci for b in cj] for ci in cols for cj in cols]
    result = int_rank(rows) == v * v
    expected = is_controllable_rank(p)
    if result != expected:
        raise InternalConsistencyError(
            "algebra basis check disagrees with walk-matrix rank"
        )
    return result


def _pair_name(p: PairSpec) -> str:
    if p.subset is not None:
        return f"subset {list(p.subset)}"
    return f"vector {list(p.vector)}"


def full_reports(g: Graph, pairs: Sequence[PairSpec]) -> list[ControllabilityReport]:
    """The report of every pair, all on g, from one pass over g.

    Per pair: the rank of W(z) by Bareiss; phi_S from phi and the same walk
    columns (`bilinear_numerator_fractions`); and deg gcd(phi_S, phi).  As
    z^T (tI-A)^{-1} z = phi_S / phi = sum_theta |E_theta z|^2/(t - theta),
    for a root theta of phi of multiplicity m, (t - theta)^(m-1) divides
    phi_S, and (t - theta)^m does iff E_theta z = 0; Galois conjugates go
    together.  So with phi = prod f_i^{m_i} over the irreducible factors
    f_i, d = gcd(phi, phi') = prod f_i^{m_i - 1} divides every phi_S, and
    deg gcd(phi_S, phi) = deg d + sum deg f_i over the f_i with d f_i
    dividing phi_S: no multiplicity is needed.  With more than one pair,
    the f_i come from one `irreducible.factors(phi / d)`, the factors of
    the minimal polynomial, which must be squarefree; a lone pair (the
    census's S = V report, a one-subset `analyze`) takes one
    `poly_gcd(phi_S, phi)` instead, which costs less than factoring.
    rank W(z) counts the theta with E_theta z != 0, so every report checks
    rank W(z) = v - deg gcd(phi_S, phi), besides the agreement of the
    verdicts; a reducible "factor" fails this check.  A singleton {u} also
    checks its phi_S against phi(X minus u) from the adjugate diagonal, a
    second computation of one polynomial.

    W(z) is linear in z, so with more than one pair, every nonempty subset
    takes W as the sum of its members' walks from `vertex_walks`, and its
    covering radius from their BFS distance rows; any other pair, and a
    lone pair, is walked directly.  Nothing is kept per subset: memory is
    O(v^3).
    """
    v = g.v
    if any(p.graph != g for p in pairs):
        raise ValueError("every pair must be on the graph given")
    phi = graph_char_poly(g)
    deleted = vertex_deleted_char_polys(g)
    table = len(pairs) > 1
    if table:  # W(e_u) flattened and the BFS distance row of u, per vertex u
        walks = [[x for c in w for x in c] for w in vertex_walks(g)]
        dists = [distances_from(g, (u,)) for u in range(v)]
        # (d f_i, deg f_i) for the irreducible factors f_i of phi / d
        d = poly_gcd(phi, derivative(phi))
        mu = irreducible.factors(exact_div(phi, d))
        if mu is None:
            raise InternalConsistencyError(
                f"phi / gcd(phi, phi') has a repeated root for phi = {phi}"
            )
        divisors = [(mul(d, f), len(f) - 1) for f in mu]
    reports = []
    for p in pairs:
        s = p.subset
        if s and table:
            flat = list(map(sum, zip(*(walks[u] for u in s))))
            cols = [flat[k : k + v] for k in range(0, v * v, v)]
            radius = max(map(min, zip(*(dists[u] for u in s))))
        else:
            cols = walk_columns(p)
            radius = None if s is None else covering_radius(g, s)
        rank = int_rank(cols)
        phi_s = trim(bilinear_numerator_fractions(phi, p.vector, cols))
        if table:
            common = len(d) - 1 + sum(k for df, k in divisors if divides(df, phi_s))
        else:
            common = len(poly_gcd(phi_s, phi)) - 1
        verdicts = {"rank": rank == v, "poles": common == 0}
        if s is not None and len(s) == 1:
            if phi_s != deleted[s[0]]:
                raise InternalConsistencyError(
                    f"phi_S read from the walk of {_pair_name(p)} differs from"
                    f" phi(X minus {s[0]}) on the adjugate diagonal"
                )
            verdicts["coprime"] = len(poly_gcd(deleted[s[0]], phi)) == 1
        if len(set(verdicts.values())) > 1:
            raise InternalConsistencyError(
                f"characterizations disagree for {_pair_name(p)}: {verdicts}"
            )
        if rank != v - common:
            raise InternalConsistencyError(
                f"rank of W(z) is {rank} but gcd(phi_S, phi) has degree {common}"
                f" for {_pair_name(p)}, leaving {v - common} poles"
            )
        covrad_ok = None
        if s and radius != float("inf"):
            covrad_ok = radius <= rank - 1
        reports.append(
            ControllabilityReport(
                v=v,
                subset=s,
                rank_of_w=rank,
                support_size=rank,
                dual_degree=rank - 1,
                covering_radius=radius,
                controllable=rank == v,
                verdicts=verdicts,
                covrad_bound_ok=covrad_ok,
                degenerate=not any(p.vector),
            )
        )
    return reports


def full_report(p: PairSpec) -> ControllabilityReport:
    """All characterizations of one pair, with their agreement enforced:
    `full_reports` on that pair alone, one Krylov pass and one gcd."""
    return full_reports(p.graph, [p])[0]


def cone_charpoly_identity(g: Graph, members: Iterable[int]) -> tuple[tuple, tuple]:
    """phi of the cone, directly and via t*phi(X) - phi_S(X); must match."""
    s = check_subset(g, members)
    direct = graph_char_poly(cone(g, s))
    p = PairSpec.from_subset(g, s)
    formula = sub((0, *graph_char_poly(g)), numerator_coeffs(p))
    if direct != formula:
        raise InternalConsistencyError("cone characteristic polynomial identity failed")
    return direct, formula


def cone_transfer_check(g: Graph, members: Iterable[int]) -> bool:
    """Controllability transfers between (X, S) and (cone, apex)."""
    s = check_subset(g, members)
    base = is_controllable_rank(PairSpec.from_subset(g, s))
    apex = is_controllable_rank(PairSpec.from_subset(cone(g, s), [0]))
    if base != apex:
        raise InternalConsistencyError("cone transfer equivalence failed")
    return apex
