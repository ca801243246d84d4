import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlgraph.errors import Graph6Error
from ctrlgraph.graphs import (
    Graph,
    INFINITE,
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
    isomorphisms,
    laplacian_rows,
    parse_graph6,
    path,
    path_extension,
)
from ctrlgraph import control, pairiso
from ctrlgraph.matrices import mat_mul, transpose

from conftest import all_subsets, census_graphs, census_lines
from oracles import (
    edge_set,
    naive_adjacency,
    naive_complement,
    naive_degrees,
    naive_delete_vertex,
    naive_laplacian,
    naive_path_extension,
    naive_relabel,
)


def brute_isomorphisms(g, h):
    a, b = g.rows, h.rows
    return [
        perm
        for perm in itertools.permutations(range(g.v))
        if all(b[perm[i]][perm[j]] == a[i][j] for i in range(g.v) for j in range(g.v))
    ]


def test_adjacency_examples():
    assert path(2).rows == ((0, 1), (1, 0))
    assert Graph.from_edges(1, ()).rows == ((0,),)
    assert path(3).rows == ((0, 1, 0), (1, 0, 1), (0, 1, 0))


def test_laplacian_examples():
    assert laplacian_rows(path(2)) == ((1, -1), (-1, 1))
    assert laplacian_rows(empty(3)) == ((0,) * 3,) * 3


def test_laplacian_is_sum_of_edge_difference_matrices():
    g = path(3)
    total = [[0] * 3 for _ in range(3)]
    for i, j in g.edges:
        h = [int(u == i) - int(u == j) for u in range(3)]  # e_i - e_j
        total = [[t + a * b for t, b in zip(row, h)] for row, a in zip(total, h)]
    assert tuple(map(tuple, total)) == laplacian_rows(g)


def test_complement():
    assert complement(path(2)) == empty(2)
    assert complement(complement(path(4))) == path(4)
    c5 = cycle(5)
    # self-complementary up to isomorphism: same size and degree sequence
    assert len(complement(c5).edges) == 5
    assert complement(Graph.from_edges(1, ())) == Graph.from_edges(1, ())


def test_complement_adjacency_identity():
    for g in census_graphs(5):
        total = [
            [x + y for x, y in zip(r, s)]
            for r, s in zip(g.rows, complement(g).rows)
        ]
        j_minus_i = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
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
        assert sorted(automorphisms(g)) == sorted(brute_isomorphisms(g, g))


def test_automorphisms_preserve_adjacency():
    for g in census_graphs(5):
        a = g.rows
        for perm in automorphisms(g):
            pm = [[1 if perm[j] == i else 0 for j in range(g.v)] for i in range(g.v)]
            assert mat_mul(mat_mul(pm, a), transpose(pm)) == a


def test_isomorphisms_match_brute_force():
    rng = random.Random(2010)
    for g in itertools.chain(census_graphs(4), census_graphs(5)):
        perm = tuple(rng.sample(range(g.v), g.v))
        h = g.relabel(perm)  # g with itself: test_automorphisms_match_brute_force
        found = sorted(isomorphisms(g, h))
        assert found == sorted(brute_isomorphisms(g, h)) and perm in found


def test_isomorphisms_between_distinct_graphs():
    for n in (4, 5):
        graphs = census_graphs(n)
        for g, h in itertools.permutations(graphs, 2):
            assert next(isomorphisms(g, h), None) is None
    assert list(isomorphisms(path(3), path(4))) == []
    assert list(isomorphisms(empty(0), empty(0))) == [()]


def test_isomorphisms_agree_with_canonical_walk_matrix():
    # controllable graphs are asymmetric, so each relabelling is the one
    # isomorphism, and the paper's canonical form is a second route
    rng = random.Random(92)
    ctrl = [
        g
        for g in census_graphs(7)
        if control.is_controllable_rank(control.PairSpec.from_subset(g, range(7)))
    ]
    assert len(ctrl) == 92
    perms = [tuple(rng.sample(range(7), 7)) for _ in ctrl]
    moved = [g.relabel(perm) for g, perm in zip(ctrl, perms)]
    canon = [pairiso.canonical_walk_matrix(h) for h in moved]
    for i, g in enumerate(ctrl):
        assert list(isomorphisms(g, moved[i])) == [perms[i]]
        for h, c in zip(moved, canon):
            assert (next(isomorphisms(g, h), None) is not None) == (c == canon[i])


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


@st.composite
def edge_lists(draw):
    """(v, ordered vertex pairs), with repeats and both orientations."""
    v = draw(st.integers(0, 9))
    pairs = list(itertools.permutations(range(v), 2))
    return v, draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.data())
def test_rows_agree_with_edge_set_oracles(case, data):
    v, pairs = case
    g = Graph.from_edges(v, pairs)
    edges = edge_set(pairs)
    assert g.v == v and g.edges == edges
    assert g.rows == tuple(map(tuple, naive_adjacency(v, edges)))
    assert all(
        g.has_edge(a, b) == ((min(a, b), max(a, b)) in edges)
        for a in range(v)
        for b in range(v)
    )
    assert g.degrees() == naive_degrees(v, edges)
    assert complement(g) == Graph.from_edges(v, naive_complement(v, edges))
    for u in range(v):
        assert g.delete_vertex(u) == Graph.from_edges(v - 1, naive_delete_vertex(edges, u))
    perm = data.draw(st.permutations(range(v)))
    assert g.relabel(perm) == Graph.from_edges(v, naive_relabel(edges, perm))
    assert laplacian_rows(g) == tuple(map(tuple, naive_laplacian(v, edges)))
    assert parse_graph6(emit_graph6(g)) == g
    members = data.draw(st.sets(st.integers(0, v - 1))) if v else set()
    assert cone(g, members) == Graph.from_edges(
        v + 1, naive_path_extension(edges, members, 1)
    )
    k = data.draw(st.integers(1, 3))
    extended, far_end = path_extension(g, members, k)
    assert far_end == 0
    assert extended == Graph.from_edges(v + k, naive_path_extension(edges, members, k))


def test_graph6_parse_matches_networkx():
    # an outside reader of graph6 gives the same vertex count and edge set
    # on every line of data/graphs1..8.g6
    nx = pytest.importorskip("networkx")
    for n in range(1, 9):
        for line in census_lines(n):
            g, h = parse_graph6(line), nx.from_graph6_bytes(line.encode())
            assert g.v == h.number_of_nodes(), line
            assert g.edges == {tuple(sorted(e)) for e in h.edges()}, line
