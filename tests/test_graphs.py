import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlgraph.errors import Graph6Error
from ctrlgraph.graphs import (
    Graph,
    INFINITE,
    adjacency_rows,
    automorphisms,
    complement,
    cone,
    complete,
    covering_radius,
    cycle,
    diameter,
    emit_graph6,
    empty,
    is_connected,
    is_vertex_transitive,
    laplacian_rows,
    parse_graph6,
    path,
    path_extension,
)
from ctrlgraph.matrices import ExactMatrix

from conftest import all_subsets, census_graphs, census_lines


def brute_automorphisms(g):
    adj = g.adjacency_sets()
    out = []
    for perm in itertools.permutations(range(g.v)):
        if all((perm[b] in adj[perm[a]]) == (b in adj[a]) for a in range(g.v) for b in range(g.v)):
            out.append(perm)
    return out


def test_adjacency_examples():
    assert adjacency_rows(path(2)) == [[0, 1], [1, 0]]
    assert adjacency_rows(Graph.from_edges(1, ())) == [[0]]
    assert adjacency_rows(path(3)) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_laplacian_examples():
    assert laplacian_rows(path(2)) == [[1, -1], [-1, 1]]
    assert laplacian_rows(empty(3)) == [[0] * 3] * 3


def test_laplacian_is_sum_of_edge_difference_matrices():
    g = path(3)
    total = ExactMatrix.zero(3, 3)
    for i, j in g.edges:
        h = [int(u == i) - int(u == j) for u in range(3)]  # e_i - e_j
        total = total + ExactMatrix(3, 3, [a * b for a in h for b in h])
    assert total == ExactMatrix.from_rows(laplacian_rows(g))


def test_complement():
    assert complement(path(2)) == empty(2)
    assert complement(complement(path(4))) == path(4)
    c5 = cycle(5)
    # self-complementary up to isomorphism: same size and degree sequence
    assert len(complement(c5).edges) == 5
    assert complement(Graph.from_edges(1, ())) == Graph.from_edges(1, ())


def test_complement_adjacency_identity():
    for g in census_graphs(5):
        total = ExactMatrix.from_rows(adjacency_rows(g)) + ExactMatrix.from_rows(
            adjacency_rows(complement(g))
        )
        j_minus_i = ExactMatrix.from_rows(
            [[0 if i == j else 1 for j in range(5)] for i in range(5)]
        )
        assert total == j_minus_i


def test_cone():
    assert cone(Graph.from_edges(1, ()), [0]) == path(2)
    assert cone(path(2), [0, 1]) == complete(3)
    g = cone(path(2), [])
    assert g.v == 3 and g.degrees()[0] == 0


def test_cone_then_delete_apex():
    g = path(4)
    assert cone(g, [1, 3]).delete_vertex(0) == g


def test_path_extension():
    g1, d1 = path_extension(path(2), [0], 1)
    assert g1 == cone(path(2), [0]) and d1 == 0
    g2, d2 = path_extension(Graph.from_edges(1, ()), [0], 2)
    assert g2 == path(3) and d2 == 0
    g3, _ = path_extension(path(2), [0], 3)
    assert g3.v == 5 and len(g3.edges) == 4 and is_connected(g3)
    with pytest.raises(ValueError):
        path_extension(path(2), [0], 0)


def test_automorphisms_examples():
    assert len(automorphisms(complete(3))) == 6
    assert sorted(automorphisms(path(3))) == [(0, 1, 2), (2, 1, 0)]
    with pytest.raises(ValueError):
        automorphisms(empty(11))


def test_automorphisms_match_brute_force():
    for g in itertools.chain(census_graphs(4), census_graphs(5)):
        assert sorted(automorphisms(g)) == sorted(brute_automorphisms(g))


def test_automorphisms_preserve_adjacency():
    for g in census_graphs(5):
        a = ExactMatrix.from_rows(adjacency_rows(g))
        for perm in automorphisms(g):
            pm = ExactMatrix.from_rows(
                [[1 if perm[j] == i else 0 for j in range(g.v)] for i in range(g.v)]
            )
            assert pm @ a @ pm.transpose() == a


def test_vertex_transitive():
    assert is_vertex_transitive(cycle(5))
    assert not is_vertex_transitive(path(3))
    assert is_vertex_transitive(path(2))


def test_covering_radius():
    g = path(4)
    assert covering_radius(g, range(4)) == 0
    assert covering_radius(g, [0]) == 3
    assert covering_radius(cycle(4), [0]) == 2
    assert covering_radius(g, []) == INFINITE
    two = empty(2)
    assert covering_radius(two, [0]) == INFINITE  # isolated vertex unreachable


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 33), st.data())
def test_covering_radius_monotone_under_growth(idx, data):
    g = census_graphs(5)[idx]
    small = data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))
    big = small | data.draw(st.sets(st.integers(0, 4), min_size=0, max_size=3))
    assert covering_radius(g, big) <= covering_radius(g, small)


def test_diameter():
    assert diameter(path(4)) == 3
    assert diameter(complete(4)) == 1
    assert diameter(empty(2)) == INFINITE


def test_graph6_parse_examples():
    assert parse_graph6("A_") == path(2)
    assert parse_graph6("@") == Graph.from_edges(1, ())


def test_graph6_round_trip_census():
    for n in range(1, 9):
        for line in census_lines(n):
            assert emit_graph6(parse_graph6(line)) == line


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("A")  # missing data character
    with pytest.raises(Graph6Error):
        parse_graph6("B=")  # '=' is below the graph6 character range
    with pytest.raises(Graph6Error):
        parse_graph6("B~")  # nonzero padding bits for n=3


def test_relabel_and_delete():
    g = path(3).relabel([2, 1, 0])
    assert g == path(3)
    assert path(3).delete_vertex(1) == empty(2)
    with pytest.raises(ValueError):
        path(3).delete_vertex(5)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
