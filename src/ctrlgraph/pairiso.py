"""Isomorphism of (graph, vector) pairs and the objects it produces.

Two pairs are isomorphic when an orthogonal matrix carries one adjacency
matrix and vector to the other; for symmetric matrices this reduces to
cospectrality plus equality of the generating rational functions.  For
controllable pairs the isomorphism is explicit and rational: Q formed from
the two walk matrices.  Controllable graphs also get a canonical vertex
order from the lexicographic sort of walk-matrix rows.
"""

from __future__ import annotations

from fractions import Fraction

from .control import (
    PairSpec,
    graph_char_poly,
    is_controllable_rank,
    numerator_coeffs,
    vertex_deleted_char_polys,
    walk_columns,
    walk_matrix,
)
from .errors import InternalConsistencyError
from .graphs import Graph, adjacency_rows, complement
from .matrices import ExactMatrix, int_rank, inverse


def pairs_isomorphic(p1: PairSpec, p2: PairSpec) -> bool:
    """Cospectral underlying graphs plus equal generating functions."""
    if p1.graph.v != p2.graph.v:
        raise ValueError("pairs must have the same vertex count")
    if graph_char_poly(p1.graph) != graph_char_poly(p2.graph):
        return False
    return numerator_coeffs(p1) == numerator_coeffs(p2)


def q_matrix(p1: PairSpec, p2: PairSpec) -> ExactMatrix:
    """The rational orthogonal isomorphism W_2 W_1^{-1} of two controllable
    isomorphic pairs; its defining identities are re-verified exactly."""
    if not (is_controllable_rank(p1) and is_controllable_rank(p2)):
        raise ValueError("q_matrix requires controllable pairs")
    if not pairs_isomorphic(p1, p2):
        raise ValueError("q_matrix requires isomorphic pairs")
    w1 = walk_matrix(p1)
    w2 = walk_matrix(p2)
    q = w2 @ inverse(w1)
    v = p1.graph.v
    ident = ExactMatrix.identity(v)
    if q.transpose() @ q != ident:
        raise InternalConsistencyError("Q is not orthogonal")
    a1 = ExactMatrix.from_rows(adjacency_rows(p1.graph))
    a2 = ExactMatrix.from_rows(adjacency_rows(p2.graph))
    if q @ a1 @ q.transpose() != a2:
        raise InternalConsistencyError("Q does not conjugate A to B")
    if q.matvec(list(p1.vector)) != [Fraction(x) for x in p2.vector]:
        raise InternalConsistencyError("Q does not map y to z")
    return q


def q_involution_check(g: Graph, s, t) -> bool:
    """Same-graph case: Q must be a symmetric involution commuting with A."""
    p1 = PairSpec.from_subset(g, s)
    p2 = PairSpec.from_subset(g, t)
    q = q_matrix(p1, p2)
    a = ExactMatrix.from_rows(adjacency_rows(g))
    if q @ a != a @ q:
        raise InternalConsistencyError("Q does not commute with A")
    if q @ q != ExactMatrix.identity(g.v):
        raise InternalConsistencyError("Q is not an involution")
    if q != q.transpose():
        raise InternalConsistencyError("Q is not symmetric")
    return True


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Permutation sorting the full-subset walk-matrix rows lexicographically.

    Only defined for controllable graphs, where the rows are pairwise
    distinct, making the order (and hence the sorted matrix) canonical.
    """
    p = PairSpec.from_subset(g, range(g.v))
    if not is_controllable_rank(p):
        raise ValueError("canonical order requires a controllable graph")
    cols = walk_columns(p)
    rows = [tuple(col[u] for col in cols) for u in range(g.v)]
    return tuple(sorted(range(g.v), key=lambda u: rows[u]))


def canonical_walk_matrix(g: Graph) -> tuple[tuple, ...]:
    """Rows of the walk matrix in canonical order; equal across relabelings
    of a controllable graph, distinct across non-isomorphic ones."""
    order = canonical_order(g)
    p = PairSpec.from_subset(g, range(g.v))
    cols = walk_columns(p)
    return tuple(tuple(col[u] for col in cols) for u in order)


def cospectral_vertices(g: Graph) -> list[tuple[int, int]]:
    """Pairs {u, v} whose vertex-deleted subgraphs are cospectral."""
    polys = vertex_deleted_char_polys(g)
    return [
        (u, w)
        for u in range(g.v)
        for w in range(u + 1, g.v)
        if polys[u] == polys[w]
    ]


def module_orthogonality_check(g: Graph, u: int, w: int) -> bool:
    """For cospectral u, w: the A-modules of e_u+e_w and e_u-e_w are
    orthogonal; when together they span everything, they are complements."""
    polys = vertex_deleted_char_polys(g)
    if polys[u] != polys[w]:
        raise ValueError(f"vertices {u} and {w} are not cospectral")
    v = g.v
    plus = [0] * v
    minus = [0] * v
    plus[u] = plus[w] = 1
    minus[u], minus[w] = 1, -1
    cols_p = walk_columns(PairSpec.from_vector(g, plus))
    cols_m = walk_columns(PairSpec.from_vector(g, minus))
    for cp in cols_p:
        for cm in cols_m:
            if sum(a * b for a, b in zip(cp, cm)) != 0:
                raise InternalConsistencyError("cyclic modules are not orthogonal")
    combined = [[int(x) for x in col] for col in cols_p + cols_m]
    if int_rank(combined, v) == v:
        dim_p = int_rank([[int(x) for x in c] for c in cols_p], v)
        dim_m = int_rank([[int(x) for x in c] for c in cols_m], v)
        if dim_p + dim_m != v:
            raise InternalConsistencyError("modules do not form a direct sum")
    return True


def johnson_newman_check(g1: Graph, g2: Graph) -> bool:
    """For cospectral graphs: all-ones generating functions agree iff the
    complements are cospectral.  Returns the shared verdict."""
    if g1.v != g2.v:
        raise ValueError("graphs must have the same vertex count")
    if graph_char_poly(g1) != graph_char_poly(g2):
        raise ValueError("inputs must be cospectral")
    lhs = numerator_coeffs(
        PairSpec.from_subset(g1, range(g1.v))
    ) == numerator_coeffs(PairSpec.from_subset(g2, range(g2.v)))
    rhs = graph_char_poly(complement(g1)) == graph_char_poly(complement(g2))
    if lhs != rhs:
        raise InternalConsistencyError(
            "generating-function criterion disagrees with complement cospectrality"
        )
    return lhs
