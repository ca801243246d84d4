import itertools
import random

import pytest
import sympy

from ctrlgraph.control import graph_char_poly
from ctrlgraph.graphs import Graph, cycle, path
from ctrlgraph.irreducible import is_irreducible
from ctrlgraph.polys import mul

from conftest import census_graphs
from oracles import poly_from_roots


T = sympy.Symbol("t")


def _expr(f: tuple):
    return sum(c * T**k for k, c in enumerate(f))


def sympy_irreducible(f: tuple) -> bool:
    return sympy.Poly(_expr(f), T).is_irreducible


def test_known_cases():
    assert is_irreducible((-2, 0, 1))  # t^2 - 2
    assert not is_irreducible((-1, 0, 1))  # (t-1)(t+1)
    assert not is_irreducible((0, -2, 0, 1))  # root 0
    assert is_irreducible((1, 1, 1))  # cyclotomic
    assert is_irreducible((7, 0, 1))
    assert not is_irreducible(poly_from_roots([1, 2, 3]))
    assert is_irreducible((-3, 1))  # degree 1
    assert not is_irreducible((1, -2, 1))  # not squarefree


def test_degree_two_factors_without_rational_roots():
    # (t^2 - 2)(t^2 - 3): reducible, no rational roots
    f = mul((-2, 0, 1), (-3, 0, 1))
    assert not is_irreducible(f)
    # random monic products of two factors of degree >= 2 with no rational
    # root, up to degree 16: only recombination of lifted factors finds them,
    # and coefficients up to 10^6 need Hensel lifting past p
    rng = random.Random(99)
    tried = 0
    while tried < 60:
        c = 10**6 if tried % 2 else 5
        a, b = (
            (*(rng.randint(-c, c) for _ in range(rng.randint(2, 8))), 1)
            for _ in range(2)
        )
        f = mul(a, b)
        if sympy.Poly(_expr(f), T).ground_roots():
            continue
        tried += 1
        assert not is_irreducible(f), (a, b)
        assert not sympy_irreducible(f)


def test_input_validation():
    with pytest.raises(ValueError):
        is_irreducible((0, 0, 2))  # not monic
    assert not is_irreducible((0,) * 13 + (1,))  # t^13: no degree cap
    assert not is_irreducible((5,))
    assert not is_irreducible(())


def test_random_monic_against_sympy():
    rng = random.Random(1234)
    for _ in range(150):
        d = rng.randint(2, 16)
        f = (*(rng.randint(-6, 6) for _ in range(d)), 1)
        assert is_irreducible(f) == sympy_irreducible(f), f


def test_census_charpolys_against_sympy():
    # every distinct phi on 6 and 7 vertices
    phis = {graph_char_poly(g) for g in census_graphs(6) + census_graphs(7)}
    for f in phis:
        assert is_irreducible(f) == sympy_irreducible(f), f


def test_large_graph_charpolys_against_sympy():
    # past the old 12-vertex cap: seeded G(v, 1/2), paths and cycles
    rng = random.Random(2024)
    for v in range(13, 25):
        edges = [e for e in itertools.combinations(range(v), 2) if rng.random() < 0.5]
        for g in (Graph.from_edges(v, edges), path(v), cycle(v)):
            f = graph_char_poly(g)
            assert is_irreducible(f) == sympy_irreducible(f), (v, f)
