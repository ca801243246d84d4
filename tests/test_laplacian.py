import itertools

import pytest

from ctrlgraph.graphs import Graph, complete, cycle, empty, path
from ctrlgraph.laplacian import (
    bordered_rank,
    edge_perturbation_polys,
    h_module_dimension,
    laplacian_char_poly,
    laplacian_pair_automorphism_check,
    laplacian_pair_controllable,
)

from conftest import census_graphs


def test_delete_edge_of_k2():
    d, f = edge_perturbation_polys(path(2), 0, 1, "delete")
    assert d == (0, 0, 1) and f == d  # t^2


def test_add_edge_to_empty_pair():
    d, f = edge_perturbation_polys(empty(2), 0, 1, "add")
    assert d == (0, -2, 1)  # t(t-2)


def test_add_then_delete_restores():
    g = path(4)
    added = Graph.from_edges(4, set(g.edges) | {(0, 3)})
    d_add, _ = edge_perturbation_polys(g, 0, 3, "add")
    assert d_add == laplacian_char_poly(added)
    d_del, _ = edge_perturbation_polys(added, 0, 3, "delete")
    assert d_del == laplacian_char_poly(g)


def test_mode_validation():
    with pytest.raises(ValueError):
        edge_perturbation_polys(path(2), 0, 1, "add")  # already an edge
    with pytest.raises(ValueError):
        edge_perturbation_polys(empty(2), 0, 1, "delete")
    with pytest.raises(ValueError):
        edge_perturbation_polys(path(2), 0, 0, "add")
    with pytest.raises(ValueError):
        edge_perturbation_polys(path(2), 0, 1, "toggle")


def test_edge_formula_exhaustive_n4():
    for g in census_graphs(4):
        for i, j in itertools.combinations(range(4), 2):
            mode = "delete" if g.has_edge(i, j) else "add"
            edge_perturbation_polys(g, i, j, mode)  # raises on mismatch


def test_pair_controllability_examples():
    assert laplacian_pair_controllable(path(2), 0, 1)
    for i, j in itertools.combinations(range(4), 2):
        assert not laplacian_pair_controllable(cycle(4), i, j)
    assert not laplacian_pair_controllable(path(3), 0, 2)
    with pytest.raises(ValueError):
        laplacian_pair_controllable(path(2), 1, 1)


def test_bordered_rank_is_module_dim_plus_one():
    for g in census_graphs(5):
        for i, j in itertools.combinations(range(5), 2):
            assert bordered_rank(g, i, j) == h_module_dimension(g, i, j) + 1


def test_pole_count_matches_module_dimension():
    from ctrlgraph.graphs import laplacian_rows
    from ctrlgraph.matrices import adjugate_samples, bilinear_numerator_fractions
    from ctrlgraph.polys import trim

    from oracles import distinct_pole_count

    for g in census_graphs(4):
        lap_poly = laplacian_char_poly(g)
        _, bs = adjugate_samples(laplacian_rows(g))
        for i, j in itertools.combinations(range(4), 2):
            h = [0] * 4
            h[i], h[j] = 1, -1
            psi = trim(bilinear_numerator_fractions(bs, h, h))
            poles = distinct_pole_count(psi, lap_poly)
            assert poles == h_module_dimension(g, i, j)


def test_automorphism_check():
    g = path(4)
    assert laplacian_pair_controllable(g, 0, 1)
    assert laplacian_pair_automorphism_check(g, 0, 1)
    with pytest.raises(ValueError):
        laplacian_pair_automorphism_check(path(2), 0, 1)  # v >= 3 only
    with pytest.raises(ValueError):
        laplacian_pair_automorphism_check(cycle(4), 0, 1)  # not controllable


def test_laplacian_rows_sum_zero():
    from ctrlgraph.graphs import laplacian_rows
    from ctrlgraph.matrices import mat_vec

    for g in census_graphs(5):
        lap = laplacian_rows(g)
        assert mat_vec(lap, [1] * 5) == [0] * 5
