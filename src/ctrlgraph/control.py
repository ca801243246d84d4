"""Walk matrices and the controllability characterizations.

A pair is a graph together with a vector z (usually the characteristic
vector of a vertex subset).  The pair is controllable when the walk matrix
(z Az ... A^{v-1}z) is invertible; equivalently when the rational function
z^T (tI-A)^{-1} z has v distinct poles.  Both routes are implemented and a
disagreement between them is raised as an internal error: their equivalence
is a theorem, so disagreement means a bug here, never odd input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import irreducible
from .errors import InternalConsistencyError
from .graphs import Graph, adjacency_rows, check_subset, cone, covering_radius
from .matrices import (
    ExactMatrix,
    adjugate_samples,
    bilinear_numerator_fractions,
    clear_denominators,
    int_rank,
    krylov_columns,
)
from .polys import IntPoly, RationalFunction, poly_gcd

ALGEBRA_CHECK_BOUND = 7

# Graphs whose kernel result is kept: memory stays flat on long streams.
ADJUGATE_CACHE_SIZE = 8


@dataclass(frozen=True)
class PairSpec:
    """A graph plus a rational vector; the subset is kept when known."""

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
        entries = tuple(Fraction(x) for x in vec)
        subset = None
        if all(x in (0, 1) for x in entries):
            subset = tuple(u for u, x in enumerate(entries) if x == 1)
            entries = tuple(int(x) for x in entries)
        return cls(g, entries, subset)

    @property
    def is_integer_vector(self) -> bool:
        return all(Fraction(x).denominator == 1 for x in self.vector)


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
    return krylov_columns(adjacency_rows(p.graph), p.vector, p.graph.v)


def walk_matrix(p: PairSpec) -> ExactMatrix:
    return ExactMatrix.from_rows(walk_columns(p)).transpose()


def walk_matrix_rank(p: PairSpec) -> int:
    """Rank of W; scaling a column to integers does not change it."""
    cols = [clear_denominators(col)[0] for col in walk_columns(p)]
    return int_rank(cols, p.graph.v)


def is_controllable_rank(p: PairSpec) -> bool:
    return walk_matrix_rank(p) == p.graph.v


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def graph_adjugate(g: Graph) -> tuple:
    """(phi, (B_0, ..., B_{v-1})) of the adjacency matrix: the one kernel
    pass per graph, which every spectral quantity below reads."""
    return adjugate_samples(adjacency_rows(g))


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def graph_char_poly(g: Graph) -> IntPoly:
    """phi(X, t) = det(tI - A)."""
    return graph_adjugate(g)[0]


@lru_cache(maxsize=ADJUGATE_CACHE_SIZE)
def vertex_deleted_char_polys(g: Graph) -> tuple[IntPoly, ...]:
    """phi(X minus u, t) for every u, read off the adjugate diagonal."""
    bs = graph_adjugate(g)[1]
    return tuple(IntPoly(bk[u][u] for bk in bs) for u in range(g.v))


def numerator_coeffs(p: PairSpec) -> tuple:
    """Fraction coefficients of phi_S: the numerator of z^T (tI-A)^{-1} z
    over phi(X, t), exact for any rational vector."""
    return bilinear_numerator_fractions(graph_adjugate(p.graph)[1], p.vector, p.vector)


def numerator_poly(p: PairSpec) -> IntPoly:
    """phi_S(X, t) as an integer polynomial (integer vectors only)."""
    if not p.is_integer_vector:
        raise ValueError("integer vector required; use numerator_coeffs")
    coeffs = numerator_coeffs(p)
    return IntPoly(int(c) for c in coeffs)


def pair_rational_function(p: PairSpec) -> RationalFunction:
    """z^T (tI-A)^{-1} z as an exact ratio of integer polynomials."""
    num, den = clear_denominators(numerator_coeffs(p))
    return RationalFunction(IntPoly(num), graph_char_poly(p.graph) * den)


def is_controllable_poles(p: PairSpec) -> bool:
    """Pole-count characterization: v distinct poles of z^T(tI-A)^{-1}z.

    A is symmetric, so z^T(tI-A)^{-1}z = sum_theta |E_theta z|^2/(t - theta)
    over its distinct eigenvalues: every pole is simple, and v distinct
    poles means gcd(phi_S, phi) = 1 (no squarefree test of phi needed).
    """
    num = pair_rational_function(p).num
    return poly_gcd(num, graph_char_poly(p.graph)).is_constant


def is_vertex_controllable(g: Graph, u: int) -> bool:
    """Coprimality of phi(X minus u) and phi(X)."""
    if not 0 <= u < g.v:
        raise ValueError(f"vertex {u} out of range")
    deleted = vertex_deleted_char_polys(g)[u]
    return poly_gcd(deleted, graph_char_poly(g)).is_constant


def algebra_basis_check(p: PairSpec, bound: int = ALGEBRA_CHECK_BOUND) -> bool:
    """Do the v^2 matrices A^i z z^T A^j span all v x v matrices?

    Sized v^4, hence the cap; must agree with the rank characterization.
    """
    v = p.graph.v
    if v > bound:
        raise ValueError(f"algebra basis check capped at {bound} vertices")
    cols = walk_columns(p)
    rows = [
        clear_denominators([a * b for a in ci for b in cj])[0]
        for ci in cols
        for cj in cols
    ]
    result = int_rank(rows, v * v) == v * v
    expected = is_controllable_rank(p)
    if result != expected:
        raise InternalConsistencyError(
            "algebra basis check disagrees with walk-matrix rank"
        )
    return result


def full_report(p: PairSpec) -> ControllabilityReport:
    """All characterizations at once, with their agreement enforced."""
    v = p.graph.v
    rank = walk_matrix_rank(p)
    by_rank = rank == v
    by_poles = is_controllable_poles(p)
    verdicts = {"rank": by_rank, "poles": by_poles}
    if p.subset is not None and len(p.subset) == 1:
        verdicts["coprime"] = is_vertex_controllable(p.graph, p.subset[0])
    if len(set(verdicts.values())) > 1:
        raise InternalConsistencyError(
            f"characterizations disagree for {p}: {verdicts}"
        )
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
        controllable=by_rank,
        verdicts=verdicts,
        covrad_bound_ok=covrad_ok,
        degenerate=all(x == 0 for x in p.vector),
    )


def cone_charpoly_identity(g: Graph, members: Iterable[int]) -> tuple[IntPoly, IntPoly]:
    """phi of the cone, directly and via t*phi(X) - phi_S(X); must match."""
    s = check_subset(g, members)
    direct = graph_char_poly(cone(g, s))
    p = PairSpec.from_subset(g, s)
    formula = graph_char_poly(g).shift(1) - numerator_poly(p)
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


def is_charpoly_irreducible(g: Graph, bound: int = irreducible.IRREDUCIBILITY_BOUND) -> bool:
    return irreducible.is_irreducible(graph_char_poly(g), bound)
