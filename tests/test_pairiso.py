import itertools
import random

import pytest

from ctrlgraph.control import PairSpec, graph_char_poly, is_controllable_rank
from ctrlgraph.graphs import Graph, complete, cycle, empty, path
from ctrlgraph.matrices import identity, mat_mul, transpose
from ctrlgraph.pairiso import (
    canonical_order,
    canonical_walk_matrix,
    cospectral_vertices,
    johnson_newman_check,
    module_orthogonality_check,
    pairs_isomorphic,
    q_involution_check,
    q_matrix,
)

from conftest import all_subsets, census_graphs

K1 = Graph.from_edges(1, ())


def test_pairs_isomorphic_reflexive():
    p = PairSpec.from_subset(path(4), [0, 2])
    assert pairs_isomorphic(p, p)


def test_pairs_isomorphic_path_ends():
    p0 = PairSpec.from_subset(path(3), [0])
    p2 = PairSpec.from_subset(path(3), [2])
    p1 = PairSpec.from_subset(path(3), [1])
    assert pairs_isomorphic(p0, p2)
    assert not pairs_isomorphic(p0, p1)


def test_pairs_isomorphic_size_mismatch():
    with pytest.raises(ValueError):
        pairs_isomorphic(PairSpec.from_subset(path(2), [0]), PairSpec.from_subset(path(3), [0]))


def test_relabeling_gives_isomorphic_pairs():
    rng = random.Random(7)
    for g in census_graphs(5):
        perm = list(range(5))
        rng.shuffle(perm)
        h = g.relabel(perm)
        s = (0, 2)
        t = tuple(sorted(perm[u] for u in s))
        assert pairs_isomorphic(PairSpec.from_subset(g, s), PairSpec.from_subset(h, t))


def test_isomorphic_pairs_share_gram_matrix():
    from ctrlgraph.control import walk_matrix

    p0 = PairSpec.from_subset(path(3), [0])
    p2 = PairSpec.from_subset(path(3), [2])
    w0, w2 = walk_matrix(p0), walk_matrix(p2)
    assert mat_mul(transpose(w0), w0) == mat_mul(transpose(w2), w2)


def test_q_matrix_identity_case():
    p = PairSpec.from_subset(path(3), [0])
    assert q_matrix(p, p) == identity(3)


def test_q_matrix_path_reversal():
    q = q_matrix(PairSpec.from_subset(path(3), [0]), PairSpec.from_subset(path(3), [2]))
    assert q == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_q_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        q_matrix(
            PairSpec.from_subset(cycle(4), [0]), PairSpec.from_subset(cycle(4), [1])
        )
    with pytest.raises(ValueError):
        q_matrix(
            PairSpec.from_subset(path(3), [0]), PairSpec.from_subset(path(3), [1])
        )


def test_q_involution():
    assert q_involution_check(path(3), [0], [0])
    assert q_involution_check(path(3), [0], [2])


def test_canonical_order_k1():
    assert canonical_order(K1) == (0,)


def test_canonical_order_requires_controllable():
    with pytest.raises(ValueError):
        canonical_order(cycle(4))


def test_canonical_walk_matrix_relabeling_invariant():
    rng = random.Random(11)
    controllable = [
        g
        for g in census_graphs(6)
        if is_controllable_rank(PairSpec.from_subset(g, range(6)))
    ]
    assert len(controllable) == 8
    for g in controllable:
        ref = canonical_walk_matrix(g)
        for _ in range(20):
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_walk_matrix(g.relabel(perm)) == ref


def test_canonical_walk_matrices_distinct():
    mats = [
        canonical_walk_matrix(g)
        for g in census_graphs(6)
        if is_controllable_rank(PairSpec.from_subset(g, range(6)))
    ]
    assert len(set(mats)) == len(mats)


def test_cospectral_vertices_examples():
    assert cospectral_vertices(path(3)) == [(0, 2)]
    assert cospectral_vertices(complete(3)) == [(0, 1), (0, 2), (1, 2)]


def test_module_orthogonality():
    assert module_orthogonality_check(path(3), 0, 2)
    assert module_orthogonality_check(path(2), 0, 1)
    with pytest.raises(ValueError):
        module_orthogonality_check(path(3), 0, 1)


def test_module_membership_symmetry():
    # anything in the module of e_u + e_w has equal u and w coordinates
    from ctrlgraph.control import walk_columns

    for g in census_graphs(5):
        for u, w in cospectral_vertices(g):
            plus = [0] * g.v
            plus[u] = plus[w] = 1
            for col in walk_columns(PairSpec.from_vector(g, plus)):
                assert col[u] == col[w]


def test_johnson_newman_same_graph():
    g = path(4)
    assert johnson_newman_check(g, g)


def test_johnson_newman_classic_five_vertex_pair():
    # C4 plus an isolated vertex vs the 4-star: the classic cospectral pair
    c4_k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert graph_char_poly(c4_k1) == graph_char_poly(star)
    verdict = johnson_newman_check(c4_k1, star)
    assert isinstance(verdict, bool)


def test_johnson_newman_requires_cospectral():
    with pytest.raises(ValueError):
        johnson_newman_check(path(4), cycle(4))


def test_johnson_newman_all_cospectral_pairs_n6():
    by_poly = {}
    for g in census_graphs(6):
        by_poly.setdefault(graph_char_poly(g), []).append(g)
    checked = 0
    for group in by_poly.values():
        for g1, g2 in itertools.combinations(group, 2):
            johnson_newman_check(g1, g2)  # raises on any inconsistency
            checked += 1
    assert checked > 0
