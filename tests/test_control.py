import itertools
from fractions import Fraction

import pytest

from ctrlgraph.control import (
    PairSpec,
    algebra_basis_check,
    cone_charpoly_identity,
    cone_transfer_check,
    full_report,
    graph_char_poly,
    is_charpoly_irreducible,
    is_controllable_poles,
    is_controllable_rank,
    numerator_coeffs,
    numerator_poly,
    pair_rational_function,
    support_and_dual_degree,
    vertex_deleted_char_polys,
    is_vertex_controllable,
    walk_matrix,
    walk_matrix_rank,
)
from ctrlgraph.errors import InternalConsistencyError
from ctrlgraph.graphs import (
    Graph,
    adjacency_rows,
    complete,
    cycle,
    empty,
    path,
    path_extension,
)
from ctrlgraph.matrices import ExactMatrix, int_det, inverse
from ctrlgraph.polys import IntPoly, interpolate_fractions

from conftest import all_graphs_upto, all_subsets, census_graphs

K1 = Graph.from_edges(1, ())


def test_path_char_polys_match_recurrence():
    # phi(P_0) = 1, phi(P_1) = t, phi(P_{n+1}) = t phi(P_n) - phi(P_{n-1})
    prev, cur = IntPoly([1]), IntPoly([0, 1])
    for n in range(2, 9):
        prev, cur = cur, cur.shift(1) - prev
        assert graph_char_poly(path(n)) == cur
    assert graph_char_poly(path(3)) == IntPoly([0, -2, 0, 1])


def test_walk_matrix_examples():
    assert walk_matrix(PairSpec.from_subset(K1, [0])).row_lists() == [[1]]
    w = walk_matrix(PairSpec.from_subset(path(3), [0]))
    assert w.row_lists() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    w_full = walk_matrix(PairSpec.from_subset(path(3), [0, 1, 2]))
    assert w_full.row_lists() == [[1, 1, 2], [1, 2, 2], [1, 1, 2]]


def test_rank_characterization_examples():
    for n in range(2, 9):
        assert is_controllable_rank(PairSpec.from_subset(path(n), [0]))
    for s in all_subsets(4):
        assert not is_controllable_rank(PairSpec.from_subset(cycle(4), s))
    assert not is_controllable_rank(PairSpec.from_subset(path(2), [0, 1]))


def test_numerator_poly_examples():
    assert numerator_poly(PairSpec.from_subset(path(3), [0])) == IntPoly([-1, 0, 1])
    assert numerator_poly(PairSpec.from_subset(path(3), [])).is_zero
    assert numerator_poly(PairSpec.from_subset(path(2), [0, 1])) == IntPoly([2, 2])


def test_numerator_is_vertex_deleted_poly_for_singletons():
    for g in census_graphs(5):
        deleted = vertex_deleted_char_polys(g)
        for u in range(g.v):
            assert numerator_poly(PairSpec.from_subset(g, [u])) == deleted[u]


def test_vertex_deleted_polys_are_charpolys_of_deleted_graphs():
    for g in all_graphs_upto(6):
        deleted = vertex_deleted_char_polys(g)
        for u in range(g.v):
            assert deleted[u] == graph_char_poly(g.delete_vertex(u))


def _phi_s_by_sampled_inverse(g, z):
    """z^T adj(tI - A) z from adj(cI - A) = det(cI - A) (cI - A)^{-1} at v
    points above the Gershgorin bound, then interpolated."""
    rows = adjacency_rows(g)
    base = max(sum(r) for r in rows) + 1
    points = list(range(base, base + g.v))
    values = []
    for c in points:
        shifted = [[c * (i == j) - x for j, x in enumerate(r)] for i, r in enumerate(rows)]
        inv = inverse(ExactMatrix.from_rows(shifted))
        d = int_det(shifted)
        values.append(
            sum(z[i] * d * inv.at(i, j) * z[j] for i in range(g.v) for j in range(g.v))
        )
    return interpolate_fractions(points, values)


def test_numerator_matches_sampled_inverse_route():
    sample = census_graphs(6)[::7] + census_graphs(7)[::97] + census_graphs(8)[::1201]
    for g in sample:
        for s in (range(g.v), [0], [0, g.v - 1]):
            p = PairSpec.from_subset(g, s)
            assert numerator_coeffs(p) == _phi_s_by_sampled_inverse(g, p.vector)


def test_poles_characterization_examples():
    assert is_controllable_poles(PairSpec.from_subset(path(3), [0]))
    assert not is_controllable_poles(PairSpec.from_subset(cycle(4), [0]))
    assert not is_controllable_poles(PairSpec.from_subset(path(2), [0, 1]))


def test_pair_rational_function_pole_count():
    r = pair_rational_function(PairSpec.from_subset(path(3), [0]))
    assert r.distinct_pole_count() == 3
    r4 = pair_rational_function(PairSpec.from_subset(cycle(4), [0]))
    assert r4.distinct_pole_count() < 4


def test_vertex_controllable():
    for n in range(2, 21):
        assert is_vertex_controllable(path(n), 0)
    assert not is_vertex_controllable(path(3), 1)
    for u in range(4):
        assert not is_vertex_controllable(cycle(4), u)
    with pytest.raises(ValueError):
        is_vertex_controllable(path(3), 3)


def test_support_and_dual_degree():
    for n in (3, 5, 7):
        assert support_and_dual_degree(PairSpec.from_subset(path(n), [0])) == (n, n - 1)
    assert support_and_dual_degree(PairSpec.from_subset(path(3), [0, 1, 2])) == (2, 1)
    assert support_and_dual_degree(PairSpec.from_subset(path(3), [])) == (0, -1)


def test_rational_vector_pairs():
    p = PairSpec.from_vector(path(3), [Fraction(1, 2), 0, 0])
    # scaling z never changes controllability
    assert walk_matrix_rank(p) == 3
    coeffs = numerator_coeffs(p)
    assert coeffs == (Fraction(-1, 4), 0, Fraction(1, 4))


def test_algebra_basis_check():
    assert algebra_basis_check(PairSpec.from_subset(path(3), [0]))
    assert not algebra_basis_check(PairSpec.from_subset(path(2), [0, 1]))
    assert algebra_basis_check(PairSpec.from_subset(K1, [0]))
    with pytest.raises(ValueError):
        algebra_basis_check(PairSpec.from_subset(empty(8), []))


def test_full_report_examples():
    rep = full_report(PairSpec.from_subset(path(4), [0]))
    assert rep.controllable and rep.dual_degree == 3 and rep.covering_radius == 3
    assert rep.covrad_bound_ok
    rep2 = full_report(PairSpec.from_subset(cycle(4), [0, 1]))
    assert not rep2.controllable
    rep3 = full_report(PairSpec.from_subset(K1, [0]))
    assert rep3.controllable and rep3.covering_radius == 0
    rep4 = full_report(PairSpec.from_subset(path(3), []))
    assert rep4.degenerate and not rep4.controllable


def test_cone_charpoly_identity_examples():
    d, f = cone_charpoly_identity(K1, [0])
    assert d == IntPoly([-1, 0, 1])
    d, f = cone_charpoly_identity(path(2), [0, 1])
    assert d == IntPoly([-2, -3, 0, 1])
    g = path(3)
    d, f = cone_charpoly_identity(g, [])
    assert d == graph_char_poly(g).shift(1)


def test_cone_transfer_examples():
    assert cone_transfer_check(path(3), [0])
    assert not cone_transfer_check(cycle(4), [0])


def test_path_extension_controllability_family():
    g = path(3)
    for k in range(1, 5):
        ext, far = path_extension(g, [0], k)
        assert is_controllable_rank(PairSpec.from_subset(ext, [far]))


def test_charpoly_irreducible():
    assert not is_charpoly_irreducible(path(2))  # t^2 - 1
    assert not is_charpoly_irreducible(path(3))  # root 0
    with pytest.raises(ValueError):
        is_charpoly_irreducible(empty(13))


def test_irreducible_charpoly_implies_all_controllable():
    # the corollary: irreducible phi forces (X, V) and every (X, u) controllable
    found = 0
    for g in census_graphs(6):
        if is_charpoly_irreducible(g):
            found += 1
            assert is_controllable_rank(PairSpec.from_subset(g, range(g.v)))
            for u in range(g.v):
                assert is_vertex_controllable(g, u)
    assert found > 0


def test_from_vector_validation():
    with pytest.raises(ValueError):
        PairSpec.from_vector(path(3), [1, 0])
    with pytest.raises(ValueError):
        numerator_poly(PairSpec.from_vector(path(3), [Fraction(1, 2), 0, 0]))
