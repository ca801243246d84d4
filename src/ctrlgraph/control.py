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

Both subset engines read the powers of A and their one slot width from
`packed_powers`, one `krylov_columns` call on the packed identity, in
which each row of A^k is one integer, read in place where it is summed.

A report has two routes.  `full_report` decides one pair from one walk
of z, with one `poly_gcd(phi_S, phi)`.  `full_reports` decides many
subsets of one graph from one table, walking none: a subset sums its
members' walks W(e_u) from the packed powers, and reads deg gcd(phi_S, phi)
as deg d, for d = gcd(phi, phi'), plus deg f_i for each irreducible factor
f_i of A's minimal polynomial mu = phi / d with h_i(A) z = 0, h_i = mu / f_i,
summed from its members' packed h_i(A) e_u as the subset count does.  Both
check every report for rank W(z) = v - deg gcd(phi_S, phi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from . import irreducible
from .errors import InternalConsistencyError
from .graphs import INFINITE, Graph, check_subset, cone, covering_radius, distances_from
from .matrices import (
    adjugate_samples,
    bilinear_numerator_fractions,
    int_rank,
    krylov_columns,
    transpose,
)
from .polys import derivative, divides, exact_div, poly_gcd, sub, trim

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
    covering_radius: object  # int, or math.inf for empty/unreachable subsets
    verdicts: dict = field(compare=False)
    degenerate: bool = False

    support_size = property(lambda self: self.rank_of_w)
    dual_degree = property(lambda self: self.rank_of_w - 1)
    controllable = property(lambda self: self.rank_of_w == self.v)

    @property
    def covrad_bound_ok(self) -> bool | None:
        """radius <= rank W - 1; None for no subset, the empty one or an
        unreachable vertex."""
        if not self.subset or self.covering_radius == float("inf"):
            return None
        return self.covering_radius <= self.rank_of_w - 1


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


def packed_powers(g: Graph, count: int) -> tuple[list[list[int]], int]:
    """(powers, bits): the powers I, A, ..., A^{count-1} with each row
    packed into one integer, entry [k][u] being sum_j (A^k)_uj 2^(bits j),
    row u of A^k, which is also A^k e_u (A is symmetric).  One
    `krylov_columns` call on the packed identity z_j = 2^(bits j): the
    kernel is linear, so entry u of A^k z is sum_j (A^k)_uj z_j.

    The width depends on the graph and count alone.  Let r = max(1, largest
    degree), the largest absolute row sum of A.  (A^k)_uw counts the walks
    of length k from u to w, at most r^k.  Every eigenvalue has
    |theta| <= r, so a monic h of degree below v whose roots are
    eigenvalues has |h(theta)| <= (2r)^(v-1), and as h(A) is symmetric with
    eigenvalues h(theta), every entry of h(A) z, z a 0/1 vector, is at most
    |h(A) z|_2 <= sqrt(v) (2r)^(v-1).  bits is a sign bit plus the bit
    length of max(r^(count-1), v (2r)^(v-1)), so each such entry x has
    |x| < 2^(bits-1): an entry of a power reads back as a shift and a mask,
    and packed vectors h(A) z, as signed slots, are zero, or equal, iff
    they are so slot by slot."""
    v = g.v
    r = max([1, *map(sum, g.rows)])
    bound = max(r ** max(count - 1, 0), v * (2 * r) ** max(v - 1, 0))
    bits = bound.bit_length() + 1
    return krylov_columns(g.rows, [1 << bits * j for j in range(v)], count), bits


def apply_poly(h: Sequence[int], walk: Sequence[Sequence], v: int) -> list:
    """h(A) z = sum_k h[k] A^k z, from the walk columns z, Az, ... of z.
    On `packed_powers` it gives the packed columns h(A) e_u, entry u being
    sum_k h[k] times row u of A^k; a subset's h(A) z is the sum of its
    members' columns."""
    return [sum(c * col[j] for c, col in zip(h, walk)) for j in range(v)]


def controllable_subset_count(g: Graph, factors: Sequence[tuple] | None) -> tuple[int, bool]:
    """Number of subsets S, the empty one included, with (X, S) controllable,
    and whether S = V is; `factors` is `irreducible.factors` of phi, or None
    when phi has a repeated root.

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
    is the same sum over the packed rows u of the powers (`apply_poly`).

    Each h_i is a monic divisor of phi of degree below v, so by
    `packed_powers`' width every entry of a sum, an entry of h_i(A) z for a
    0/1 z, fits a signed slot, and a sum is zero iff every entry is.  At
    S = V, the last sum, the sums read as signed slots must equal h_i(A) 1
    from a list-based walk of 1, slot by slot, which an overflow fails, and
    the verdict must match the rank of W(1).
    """
    v = g.v
    if v == 0:
        return 1, True  # the empty subset, with an empty, invertible W
    powers, bits = packed_powers(g, 2 * v - 1)
    mask = (1 << bits) - 1
    traces = [sum(r >> bits * u & mask for u, r in enumerate(col)) for col in powers]
    repeated = int_rank([traces[k : k + v] for k in range(v)]) < v
    if repeated != (factors is None):
        raise InternalConsistencyError(
            "minimal polynomial of degree below v disagrees with the squarefree test of phi"
        )
    if repeated:
        return 0, False
    hs = [exact_div(graph_char_poly(g), f) for f in factors]
    sums = []  # sums[i][k]: packed h_i(A) z for the subset with bitmask k
    for h in hs:
        s = [0]
        for col in apply_poly(h, powers, v):
            s += [x + col for x in s]
        sums.append(s)
    ones = krylov_columns(g.rows, [1] * v, v)
    # the last sums as signed slots, rounded so a negative lower part borrows nothing
    half, shifts = 1 << bits - 1, range(0, bits * v, bits)
    got = [[((s[-1] + (1 << t >> 1) >> t) + half & mask) - half for t in shifts] for s in sums]
    if got != [apply_poly(h, ones, v) for h in hs]:
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
    """(phi, (phi(X minus 0), ..., phi(X minus v-1))), the characteristic
    polynomial and the diagonal of adj(tI - A): the one kernel pass per
    graph.  A numerator phi_S is read from phi and the walk of z."""
    return adjugate_samples(g.rows)


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def graph_char_poly(g: Graph) -> tuple:
    """phi(X, t) = det(tI - A)."""
    return graph_adjugate(g)[0]


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def vertex_deleted_char_polys(g: Graph) -> tuple[tuple, ...]:
    """phi(X minus u, t) for every u, as the kernel pass returns them,
    checked against sum_u phi(X minus u) = phi' (the trace of adj(tI - A)
    is the derivative of det(tI - A)).  Once the pass's divisions are
    exact, that sum holds at any slot width, so the check guards the
    diagonal bookkeeping: which entry lands in which vertex's polynomial."""
    phi, deleted = graph_adjugate(g)
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


def controllable_vertex_count(g: Graph, factors: Sequence[tuple] | None) -> int:
    """Number of vertices u with (X, u) controllable; `factors` is
    `irreducible.factors` of phi, or None when phi has a repeated root.
    u is controllable iff phi(X minus u) is coprime to phi, that is iff no
    factor of phi divides it.  A repeated root of phi is a root of every
    phi(X minus u) too (interlacing), so none is then."""
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


def _pair_name(subset, vector) -> str:
    return f"vector {list(vector)}" if subset is None else f"subset {list(subset)}"


def _checked_verdicts(v, subset, vector, rank, common, phi, phi_s, deleted) -> dict:
    """The verdicts of one pair, checked as both report routes check them:
    a singleton {u}'s phi_S against phi(X minus u), `deleted[u]`, a second
    computation of one polynomial; the verdicts against each other; and
    rank W(z), which counts the theta with E_theta z != 0, against
    v - common, for common = deg gcd(phi_S, phi)."""
    verdicts = {"rank": rank == v, "poles": common == 0}
    if subset is not None and len(subset) == 1:
        u = subset[0]
        if phi_s != deleted[u]:
            raise InternalConsistencyError(
                f"phi_S read from the walk of {_pair_name(subset, vector)} differs"
                f" from phi(X minus {u}) on the adjugate diagonal"
            )
        verdicts["coprime"] = len(poly_gcd(deleted[u], phi)) == 1
    if len(set(verdicts.values())) > 1:
        raise InternalConsistencyError(
            f"characterizations disagree for {_pair_name(subset, vector)}: {verdicts}"
        )
    if rank != v - common:
        raise InternalConsistencyError(
            f"rank of W(z) is {rank} but gcd(phi_S, phi) has degree {common}"
            f" for {_pair_name(subset, vector)}, leaving {v - common} poles"
        )
    return verdicts


def full_reports(g: Graph, subsets: Sequence[Iterable[int]]) -> list[ControllabilityReport]:
    """The report of every subset of g, from one table of g's vertices;
    fewer than two subsets go to `full_report`.

    As z^T (tI-A)^{-1} z = phi_S / phi
    = sum_theta |E_theta z|^2/(t - theta), for a root theta of phi of
    multiplicity m, (t - theta)^(m-1) divides phi_S, and (t - theta)^m
    does iff E_theta z = 0; Galois conjugates go together.  So with
    phi = prod f_i^{m_i} over the irreducible factors f_i,
    d = gcd(phi, phi') = prod f_i^{m_i - 1} divides every phi_S, and
    deg gcd(phi_S, phi) = deg d + sum deg f_i over the f_i with d f_i
    dividing phi_S: no multiplicity is needed.  The f_i come from one
    `irreducible.factors(mu)` of mu = phi / d, which must be squarefree,
    and with h_i = mu / f_i, d f_i divides phi_S iff h_i(A) z = 0: h_i(A)
    is sum_theta h_i(theta) E_theta, and h_i(theta) != 0 exactly at the
    roots of f_i.  This holds for any pairwise coprime f_i, irreducible or
    not; a reducible "factor" fails the rank check.

    W(z) and h_i(A) z are linear in z, so every subset sums its members'
    packed columns, the packed rows u of the powers: the walk columns
    A^k e_u, unpacked once summed, and the h_i(A) e_u, whose sum is zero
    iff h_i(A) z is (`packed_powers`' width), and takes its covering
    radius from their BFS rows.  The empty subset sums none: zero columns,
    a gcd of degree v and an infinite radius, with no walk.  phi_S is read
    only for a singleton.  Nothing is kept per subset: memory is O(v^3).
    """
    if len(subsets) < 2:
        return [full_report(PairSpec.from_subset(g, s)) for s in subsets]
    subsets = [check_subset(g, s) for s in subsets]
    v = g.v
    phi = graph_char_poly(g)
    deleted = vertex_deleted_char_polys(g)
    d = poly_gcd(phi, derivative(phi))
    mu = exact_div(phi, d)  # A's minimal polynomial
    factors = irreducible.factors(mu)
    if factors is None:
        raise InternalConsistencyError(
            f"phi / gcd(phi, phi') has a repeated root for phi = {phi}"
        )
    # per vertex u: the packed A^k e_u for k < v, then the packed h_i(A) e_u
    # of each factor, and the BFS distance row of u
    powers, bits = packed_powers(g, v)
    hs = [apply_poly(exact_div(mu, f), powers, v) for f in factors]
    columns = list(zip(*powers, *hs))
    zero = [0] * (v + len(hs))  # the sums of the empty subset
    mask, shifts = (1 << bits) - 1, range(0, bits * v, bits)
    dists = [distances_from(g, (u,)) for u in range(v)]
    reports = []
    for s in subsets:  # walk counts are nonnegative: each entry is a shift and a mask
        sums = list(map(sum, zip(*(columns[u] for u in s)))) or zero
        cols = [[x >> t & mask for t in shifts] for x in sums[:v]]
        radius = max(map(min, zip(*(dists[u] for u in s))), default=INFINITE)
        rank = int_rank(cols)
        phi_s = None
        if len(s) == 1:
            phi_s = trim(bilinear_numerator_fractions(phi, [int(j in s) for j in range(v)], cols))
        # d f_i divides phi_S iff h_i(A) z = 0
        common = len(d) - 1 + sum(len(f) - 1 for f, x in zip(factors, sums[v:]) if not x)
        verdicts = _checked_verdicts(v, s, None, rank, common, phi, phi_s, deleted)
        reports.append(ControllabilityReport(v, s, rank, radius, verdicts, degenerate=not s))
    return reports


def full_report(p: PairSpec) -> ControllabilityReport:
    """All characterizations of one pair, subset or integer vector, with
    their agreement enforced: one Krylov walk of z, its Bareiss rank, phi_S
    from phi and the walk, and one `poly_gcd(phi_S, phi)`, not factoring."""
    g, v, s = p.graph, p.graph.v, p.subset
    phi = graph_char_poly(g)
    deleted = vertex_deleted_char_polys(g)
    cols = walk_columns(p)
    rank = int_rank(cols)
    phi_s = trim(bilinear_numerator_fractions(phi, p.vector, cols))
    common = len(poly_gcd(phi_s, phi)) - 1
    verdicts = _checked_verdicts(v, s, p.vector, rank, common, phi, phi_s, deleted)
    radius = None if s is None else covering_radius(g, s)
    return ControllabilityReport(v, s, rank, radius, verdicts, degenerate=not any(p.vector))


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
