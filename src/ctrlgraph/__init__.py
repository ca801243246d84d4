"""Exact-arithmetic controllability of graph/subset pairs."""

from .control import (
    ControllabilityReport,
    PairSpec,
    full_report,
    is_controllable_poles,
    is_controllable_rank,
    is_vertex_controllable,
    walk_matrix,
)
from .errors import Graph6Error, InternalConsistencyError
from .graphs import Graph, complement, cone, emit_graph6, parse_graph6, path_extension
from .matrices import char_poly, mat_rank
from .pairiso import canonical_walk_matrix, pairs_isomorphic, q_matrix
from .polys import poly_gcd, poly_squarefree, reduce_ratio

__all__ = [
    "ControllabilityReport",
    "Graph",
    "Graph6Error",
    "InternalConsistencyError",
    "PairSpec",
    "canonical_walk_matrix",
    "char_poly",
    "complement",
    "cone",
    "emit_graph6",
    "full_report",
    "is_controllable_poles",
    "is_controllable_rank",
    "is_vertex_controllable",
    "mat_rank",
    "pairs_isomorphic",
    "parse_graph6",
    "path_extension",
    "q_matrix",
    "poly_gcd",
    "poly_squarefree",
    "reduce_ratio",
    "walk_matrix",
]
