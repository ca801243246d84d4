"""Laplacian edge perturbations and edge-pair controllability.

Adding or deleting an edge ij shifts the Laplacian by the rank-one matrix
built from h = e_i - e_j, so the new characteristic polynomial is the old
one corrected by the numerator of h^T (tI-L)^{-1} h.  A vertex pair {i, j}
is controllable relative to the Laplacian when the L-module generated by h
has dimension v-1, the largest it can be given that h stays orthogonal to
the all-ones vector.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .graphs import Graph, automorphisms, laplacian_rows
from .matrices import bilinear_numerator_fractions, char_poly, int_rank, krylov_columns
from .polys import add, sub, trim


def _h_vector(g: Graph, i: int, j: int) -> list[int]:
    if i == j:
        raise ValueError("edge endpoints must differ")
    if not (0 <= i < g.v and 0 <= j < g.v):
        raise ValueError("vertex out of range")
    h = [0] * g.v
    h[i], h[j] = 1, -1
    return h


def laplacian_char_poly(g: Graph) -> tuple:
    return char_poly(laplacian_rows(g))


def edge_perturbation_polys(
    g: Graph, i: int, j: int, mode: str
) -> tuple[tuple, tuple]:
    """phi of the perturbed Laplacian, directly and via the rank-one
    correction formula; the two must agree exactly.

    mode "add" requires ij to be a non-edge, "delete" an edge.
    """
    if mode not in ("add", "delete"):
        raise ValueError(f"mode must be 'add' or 'delete', got {mode!r}")
    h = _h_vector(g, i, j)
    present = g.has_edge(i, j)
    if mode == "add" and present:
        raise ValueError(f"edge ({i},{j}) already present")
    if mode == "delete" and not present:
        raise ValueError(f"edge ({i},{j}) not present")
    rows = [list(r) for r in g.rows]
    rows[i][j] = rows[j][i] = int(mode == "add")
    direct = laplacian_char_poly(Graph(tuple(map(tuple, rows))))
    lap = laplacian_rows(g)
    base = char_poly(lap)
    psi = trim(bilinear_numerator_fractions(base, h, krylov_columns(lap, h, g.v)))
    formula = sub(base, psi) if mode == "add" else add(base, psi)
    if direct != formula:
        raise InternalConsistencyError("Laplacian edge perturbation identity failed")
    return direct, formula


def h_module_dimension(g: Graph, i: int, j: int) -> int:
    """Dimension of the L-module generated by e_i - e_j."""
    return int_rank(krylov_columns(laplacian_rows(g), _h_vector(g, i, j), g.v))


def bordered_rank(g: Graph, i: int, j: int) -> int:
    """Rank of (ones | h | Lh | ... | L^{v-1}h)."""
    cols = krylov_columns(laplacian_rows(g), _h_vector(g, i, j), g.v)
    return int_rank([[1] * g.v] + cols)


def laplacian_pair_controllable(g: Graph, i: int, j: int) -> bool:
    """h-module dimension v-1 (equivalently, bordered rank v: the all-ones
    vector is always orthogonal to the module, so it adds one)."""
    return h_module_dimension(g, i, j) == g.v - 1


def laplacian_pair_automorphism_check(g: Graph, i: int, j: int) -> bool:
    """A Laplacian-controllable pair is fixed setwise only by the identity.

    Checked for v >= 3: on two vertices the sign argument excludes nothing.
    """
    if g.v < 3:
        raise ValueError("automorphism consequence is only claimed for v >= 3")
    if not laplacian_pair_controllable(g, i, j):
        raise ValueError("pair is not Laplacian-controllable")
    pair = {i, j}
    for perm in automorphisms(g):
        if {perm[i], perm[j]} == pair and any(perm[u] != u for u in range(g.v)):
            raise InternalConsistencyError(
                f"non-identity automorphism fixes controllable pair {pair}"
            )
    return True
