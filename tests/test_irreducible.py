import itertools
import random

import pytest
import sympy

from ctrlgraph.control import controllable_subset_count, graph_char_poly
from ctrlgraph.errors import InternalConsistencyError
from ctrlgraph.graphs import Graph, cycle, parse_graph6, path
from ctrlgraph import irreducible
from ctrlgraph.irreducible import factors, is_irreducible
from ctrlgraph.polys import derivative, exact_div, mul, poly_gcd, poly_squarefree

from conftest import census_graphs
from oracles import poly_from_roots


T = sympy.Symbol("t")


def _expr(f: tuple):
    return sum(c * T**k for k, c in enumerate(f))


def sympy_irreducible(f: tuple) -> bool:
    return sympy.Poly(_expr(f), T).is_irreducible


def sympy_factors(f: tuple) -> list[tuple]:
    """sympy.factor_list's distinct factors of a monic f, as coefficient
    tuples sorted by degree and then coefficients."""
    _, found = sympy.factor_list(_expr(f), T)
    return sorted(
        (tuple(int(c) for c in reversed(sympy.Poly(g, T).all_coeffs())) for g, _ in found),
        key=lambda g: (len(g), g),
    )


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
    assert is_irreducible((0, 1))
    assert not is_irreducible((0, 0, 1))


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


# Graphs whose phi needs more than half of its lifted pieces for a factor of
# at most half its degree: GCpfr{ has 6 pieces mod 67 and its cubic is 3 of
# them.  Stopping recombination at half the piece count would leave
# GCpfr{ and G?qn^{ with a reducible "factor" and too many subsets.
TRAP_GRAPHS = {
    "G?qeYw": (((0, 1), (-2, -2, 2, 1), (4, 2, -6, -2, 1)), 152),
    "G?bvRo": (((0, 1), (-1, 1, 1), (-4, 10, 8, -11, -1, 1)), 96),
    "GCpfr{": (((1, 1), (-1, -3, 1, 1), (3, 0, -10, -2, 1)), 152),
    "G?qn^{": (((1, 1), (-1, 1, 1), (-1, 8, -5, -13, -2, 1)), 112),
}


def test_recombination_past_half_the_pieces():
    for g6, (expected, subsets) in TRAP_GRAPHS.items():
        g = parse_graph6(g6)
        assert factors(graph_char_poly(g)) == list(expected), g6
        assert controllable_subset_count(g, expected)[0] == subsets, g6
    phi = graph_char_poly(parse_graph6("GCpfr{"))
    pieces = irreducible._factor_mod(irreducible._reduce(phi, 67), 67)
    assert sorted(len(g) - 1 for g in pieces) == [1, 1, 1, 1, 1, 3]
    # t (t^2 + t - 1)(t^3 - t^2 - 5t + 4): a 6-vertex phi of the same kind
    assert factors((0, -4, 9, 0, -7, 0, 1)) == [(0, 1), (-1, 1, 1), (4, -5, -1, 1)]


def test_factors_of_census_charpolys_against_sympy():
    # every distinct squarefree phi on 1 to 7 vertices
    phis = {graph_char_poly(g) for n in range(1, 8) for g in census_graphs(n)}
    checked = 0
    for f in phis:
        if poly_squarefree(f):
            checked += 1
            found = factors(f)
            assert found == sympy_factors(f), f
            assert (len(found) == 1) == is_irreducible(f), f
    assert checked > 500


def test_factors_of_random_products_against_sympy():
    # seeded products of 3 to 6 random monic factors, coefficients up to
    # 10^4 on some, kept when squarefree
    rng = random.Random(1013)
    tried = 0
    while tried < 60:
        c = 10**4 if tried % 3 == 0 else 6
        parts = [
            (*(rng.randint(-c, c) for _ in range(rng.randint(1, 4))), 1)
            for _ in range(rng.randint(3, 6))
        ]
        f = (1,)
        for g in parts:
            f = mul(f, g)
        if not poly_squarefree(f):
            continue
        tried += 1
        found = factors(f)
        assert found == sympy_factors(f), parts
        assert len(found) >= 3
    assert factors((1,)) == []
    assert factors((0, 1)) == [(0, 1)]


def test_squarefree_part_factors_against_sympy():
    # every distinct phi with a repeated root on 1 to 7 vertices, and seeded
    # products of random factors with repeats: the factors of the squarefree
    # part f / gcd(f, f') are the distinct factors of f
    phis = {graph_char_poly(g) for n in range(1, 8) for g in census_graphs(n)}
    phis = {f for f in phis if not poly_squarefree(f)}
    assert len(phis) > 300
    rng = random.Random(1017)
    for _ in range(40):
        f = (1,)
        for _ in range(rng.randint(2, 4)):
            g = (*(rng.randint(-6, 6) for _ in range(rng.randint(1, 3))), 1)
            for _ in range(rng.randint(1, 3)):
                f = mul(f, g)
        phis.add(f)
    for f in phis:
        assert factors(exact_div(f, poly_gcd(f, derivative(f)))) == sympy_factors(f), f


def test_factors_refuses_bad_input():
    with pytest.raises(ValueError, match="monic"):
        factors((1, 2))  # 2t + 1
    with pytest.raises(ValueError, match="monic"):
        factors(())
    # a repeated root is no error: it is the None that the census reads
    assert factors(mul((-2, 0, 1), (-2, 0, 1))) is None  # (t^2 - 2)^2: no good prime exists
    assert factors((0, 0, 1)) is None


def test_factors_checks_their_product(monkeypatch):
    # a stray factor is caught by the product check, which is no assert and
    # so runs under python -O too
    monkeypatch.setattr(irreducible, "_zassenhaus", lambda f: [f, (1, 1)])
    with pytest.raises(InternalConsistencyError, match="multiply to"):
        factors((-2, 0, 1))


def test_split_refuses_a_block_no_t_plus_c_splits(monkeypatch):
    # with (t + c)^e read as 1 for every c, no gcd splits (t - 1)(t - 2) mod 67
    monkeypatch.setattr(irreducible, "_powmod", lambda a, e, f, p: (1,))
    block = irreducible._reduce(mul((-1, 1), (-2, 1)), 67)
    with pytest.raises(InternalConsistencyError, match="no t \\+ c splits a degree-1 block mod 67"):
        irreducible._split(block, 1, 67)


def test_factors_check_the_hensel_product(monkeypatch):
    # phi of GCpfr{ has 6 pieces mod 67 and is lifted to m >= 67^2, so
    # pieces left unlifted multiply to phi mod 67 only
    phi = graph_char_poly(parse_graph6("GCpfr{"))
    monkeypatch.setattr(irreducible, "_hensel_lift", lambda f, g, p, m: g)
    with pytest.raises(InternalConsistencyError, match="Hensel lift of .* fails mod"):
        factors(phi)
