import itertools
import random
from fractions import Fraction

import pytest

from ctrlgraph import control, irreducible
from ctrlgraph.control import (
    PairSpec,
    algebra_basis_check,
    char_poly_factors,
    cone_charpoly_identity,
    cone_transfer_check,
    controllable_subset_count,
    controllable_vertex_count,
    full_report,
    full_reports,
    graph_char_poly,
    is_controllable_poles,
    is_controllable_rank,
    numerator_coeffs,
    vertex_deleted_char_polys,
    is_vertex_controllable,
    vertex_walks,
    walk_matrix,
    walk_matrix_rank,
)
from ctrlgraph.errors import InternalConsistencyError
from ctrlgraph.graphs import (
    Graph,
    complete,
    cycle,
    empty,
    path,
    path_extension,
)
from ctrlgraph.matrices import int_det, int_rank, inverse, krylov_columns
from ctrlgraph.polys import derivative, exact_div, interpolate_fractions, mul, poly_gcd, sub, trim

from conftest import all_graphs_upto, all_subsets, census_graphs, count_calls
from oracles import (
    distinct_pole_count,
    distinct_root_count,
    naive_power_rank,
    pair_rational_function,
    reference_report,
    subset_count_by_rank,
    vertex_count_by_gcd,
)

K1 = Graph.from_edges(1, ())


def test_path_char_polys_match_recurrence():
    # phi(P_0) = 1, phi(P_1) = t, phi(P_{n+1}) = t phi(P_n) - phi(P_{n-1})
    prev, cur = (1,), (0, 1)
    for n in range(2, 9):
        prev, cur = cur, sub((0, *cur), prev)
        assert graph_char_poly(path(n)) == cur
    assert graph_char_poly(path(3)) == (0, -2, 0, 1)


def test_walk_matrix_examples():
    assert walk_matrix(PairSpec.from_subset(K1, [0])) == ((1,),)
    w = walk_matrix(PairSpec.from_subset(path(3), [0]))
    assert w == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    w_full = walk_matrix(PairSpec.from_subset(path(3), [0, 1, 2]))
    assert w_full == ((1, 1, 2), (1, 2, 2), (1, 1, 2))


def test_rank_characterization_examples():
    for n in range(2, 9):
        assert is_controllable_rank(PairSpec.from_subset(path(n), [0]))
    for s in all_subsets(4):
        assert not is_controllable_rank(PairSpec.from_subset(cycle(4), s))
    assert not is_controllable_rank(PairSpec.from_subset(path(2), [0, 1]))


def test_rank_is_v_minus_degree_of_pole_gcd():
    # A symmetric: phi_S / phi = sum_theta |E_theta z|^2 / (t - theta), so
    # phi / gcd(phi_S, phi) has one simple root per theta with E_theta z != 0,
    # and those vectors E_theta z span the columns of W(z)
    for g in all_graphs_upto(6):
        for s in all_subsets(g.v):
            p = PairSpec.from_subset(g, s)
            common = poly_gcd(numerator_coeffs(p), graph_char_poly(g))
            assert walk_matrix_rank(p) == g.v - (len(common) - 1), (g, s)


def test_numerator_poly_examples():
    assert numerator_coeffs(PairSpec.from_subset(path(3), [0])) == (-1, 0, 1)
    assert numerator_coeffs(PairSpec.from_subset(path(3), [])) == ()
    assert numerator_coeffs(PairSpec.from_subset(path(2), [0, 1])) == (2, 2)


def test_numerator_is_vertex_deleted_poly_for_singletons():
    for g in census_graphs(5):
        deleted = vertex_deleted_char_polys(g)
        for u in range(g.v):
            assert numerator_coeffs(PairSpec.from_subset(g, [u])) == deleted[u]


def test_vertex_deleted_polys_are_charpolys_of_deleted_graphs():
    for g in all_graphs_upto(6):
        deleted = vertex_deleted_char_polys(g)
        for u in range(g.v):
            assert deleted[u] == graph_char_poly(g.delete_vertex(u))


def _phi_s_by_sampled_inverse(g, z):
    """z^T adj(tI - A) z from adj(cI - A) = det(cI - A) (cI - A)^{-1} at v
    points above the Gershgorin bound, then interpolated."""
    rows = g.rows
    base = max(sum(r) for r in rows) + 1
    points = list(range(base, base + g.v))
    values = []
    for c in points:
        shifted = [[c * (i == j) - x for j, x in enumerate(r)] for i, r in enumerate(rows)]
        inv = inverse(shifted)
        d = int_det(shifted)
        values.append(
            sum(z[i] * d * inv[i][j] * z[j] for i in range(g.v) for j in range(g.v))
        )
    return interpolate_fractions(points, values)


def test_numerator_matches_sampled_inverse_route():
    sample = census_graphs(6)[::7] + census_graphs(7)[::97] + census_graphs(8)[::1201]
    for g in sample:
        for s in (range(g.v), [0], [0, g.v - 1]):
            p = PairSpec.from_subset(g, s)
            assert numerator_coeffs(p) == trim(_phi_s_by_sampled_inverse(g, p.vector))


def test_poles_characterization_examples():
    assert is_controllable_poles(PairSpec.from_subset(path(3), [0]))
    assert not is_controllable_poles(PairSpec.from_subset(cycle(4), [0]))
    assert not is_controllable_poles(PairSpec.from_subset(path(2), [0, 1]))


def test_pair_rational_function_pole_count():
    r = pair_rational_function(PairSpec.from_subset(path(3), [0]))
    assert distinct_pole_count(*r) == 3
    r4 = pair_rational_function(PairSpec.from_subset(cycle(4), [0]))
    assert distinct_pole_count(*r4) < 4


def test_vertex_controllable():
    for n in range(2, 21):
        assert is_vertex_controllable(path(n), 0)
    assert not is_vertex_controllable(path(3), 1)
    for u in range(4):
        assert not is_vertex_controllable(cycle(4), u)
    with pytest.raises(ValueError):
        is_vertex_controllable(path(3), 3)


def test_support_and_dual_degree():
    # the support size is the walk-matrix rank, the dual degree one less
    cases = [(path(n), [0], n) for n in (3, 5, 7)]
    cases += [(path(3), [0, 1, 2], 2), (path(3), [], 0)]
    for g, members, size in cases:
        p = PairSpec.from_subset(g, members)
        assert walk_matrix_rank(p) == size
        rep = full_report(p)
        assert (rep.support_size, rep.dual_degree) == (size, size - 1)


def test_integer_scaling_pairs():
    # W(3z) = 3 W(z) and phi_{3z} = 9 phi_z: scaling z changes no verdict
    for g in census_graphs(5):
        for s in ([0], [0, 1], range(g.v)):
            p = PairSpec.from_subset(g, s)
            p3 = PairSpec.from_vector(g, [3 * x for x in p.vector])
            assert walk_matrix_rank(p3) == walk_matrix_rank(p)
            assert numerator_coeffs(p3) == mul(numerator_coeffs(p), (9,))
            assert is_controllable_poles(p3) == is_controllable_poles(p)


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


def with_verdicts(reports):
    # the verdicts field is not compared by ==
    return [(r, r.verdicts) for r in reports]


def check_against_reference(g):
    # every subset: summed from the vertex walks, and one pair at a time
    pairs = [PairSpec.from_subset(g, s) for s in all_subsets(g.v)]
    want = with_verdicts(map(reference_report, pairs))
    assert with_verdicts(full_reports(g, pairs)) == want, g
    assert with_verdicts(full_report(p) for p in pairs) == want, g


def test_full_reports_match_per_pair_reference():
    for g in [Graph.from_edges(0, ()), K1, *all_graphs_upto(6)]:
        check_against_reference(g)


def test_full_reports_on_repeated_roots_match_per_pair_reference():
    # deg gcd(phi_S, phi) from the factors of phi / gcd(phi, phi') and their
    # multiplicities, on every 7-vertex graph whose phi has a repeated root
    graphs = [g for g in census_graphs(7) if char_poly_factors(g) is None]
    assert len(graphs) == 464
    for g in graphs:
        check_against_reference(g)


def test_full_reports_check_the_multiplicity_sum(monkeypatch):
    # K3: phi = (t - 2)(t + 1)^2 and d = t + 1.  A reducible "factor"
    # t^2 - t - 2 of phi / d makes d f = phi, which does not divide phi_S of
    # S = V, so gcd(phi_S, phi) reads as degree 1 against a rank of 1
    monkeypatch.setattr(irreducible, "_zassenhaus", lambda f: [f])
    g = complete(3)
    pairs = [PairSpec.from_subset(g, s) for s in all_subsets(3)]
    with pytest.raises(InternalConsistencyError, match=r"rank of W\(z\) is 1.*subset \[0, 1, 2\]"):
        full_reports(g, pairs)


def test_full_reports_check_the_minimal_polynomial_is_squarefree(monkeypatch):
    # with gcd(phi, phi') read as 1, phi / d is phi itself, whose repeated
    # root the squarefree test in `factors` finds
    monkeypatch.setattr(control, "poly_gcd", lambda f, g: (1,))
    g = complete(3)
    pairs = [PairSpec.from_subset(g, s) for s in all_subsets(3)]
    failure = r"phi / gcd\(phi, phi'\) has a repeated root"
    with pytest.raises(InternalConsistencyError, match=failure):
        full_reports(g, pairs)


def test_full_reports_on_integer_vectors():
    rng = random.Random(14)
    for g in [K1, *census_graphs(5), *census_graphs(6)[::5]]:
        pairs = [PairSpec.from_subset(g, s) for s in all_subsets(g.v)]
        for _ in range(4):
            pairs.append(PairSpec.from_vector(g, [rng.randint(-3, 3) for _ in range(g.v)]))
        rng.shuffle(pairs)  # vectors and subsets mixed, singletons anywhere
        want = with_verdicts(map(reference_report, pairs))
        assert with_verdicts(full_reports(g, pairs)) == want, g
        # and one pair at a time
        alone = [full_report(p) for p in pairs]
        assert with_verdicts(alone) == want, g


def test_full_reports_walk_once_per_singleton(monkeypatch):
    walks = []
    real = control.krylov_columns

    def counted(rows, z, count):
        walks.append(tuple(z))
        return real(rows, z, count)

    monkeypatch.setattr(control, "krylov_columns", counted)
    g = path(5)
    full_report(PairSpec.from_subset(g, range(5)))
    assert walks == [(1,) * 5]  # one Krylov pass and no per-vertex walk
    walks.clear()
    full_reports(g, [PairSpec.from_subset(g, s) for s in all_subsets(5)])
    # one packed Krylov pass before the loop, on the packed identity with
    # slots as wide as (v-1)^(v-1) = 4^4, then the empty subset walked
    # directly; every larger subset is summed from the unpacked vertex walks
    bits = (4**4).bit_length()
    assert walks == [tuple(1 << bits * j for j in range(5)), (0,) * 5]


def test_full_reports_check_rank_against_pole_count(monkeypatch):
    # rank W(1) = 2 for P3, and gcd(phi_S, phi) has degree 1: a rank one
    # too low keeps both verdicts False, and only the pole count catches it
    real = control.int_rank
    monkeypatch.setattr(control, "int_rank", lambda rows: real(rows) - 1)
    g = path(3)
    with pytest.raises(InternalConsistencyError, match=r"rank of W\(z\) is 1.*subset \[0, 1, 2\]"):
        full_report(PairSpec.from_subset(g, range(3)))


def test_full_reports_check_singleton_numerator_against_deleted_poly(monkeypatch):
    # phi_S of {u} read from the walk must equal phi(X minus u) from the
    # adjugate diagonal; here phi(P3 minus 1) = t^2 is misread as t^2 - 1,
    # which is coprime to phi and would also upset the verdicts
    g = path(3)
    real = vertex_deleted_char_polys(g)
    wrong = (real[0], sub(real[1], (1,)), real[2])
    monkeypatch.setattr(control, "vertex_deleted_char_polys", lambda h: wrong)
    pairs = [PairSpec.from_subset(g, s) for s in all_subsets(3)]
    with pytest.raises(
        InternalConsistencyError,
        match=r"walk of subset \[1\] differs from phi\(X minus 1\)",
    ):
        full_reports(g, pairs)


def test_full_reports_refuse_pairs_of_another_graph():
    with pytest.raises(ValueError, match="graph given"):
        full_reports(path(3), [PairSpec.from_subset(cycle(3), [0])])


def test_full_reports_pick_the_gcd_route_by_pair_count(monkeypatch):
    # a lone pair takes one poly_gcd(phi_S, phi) and is never factored; many
    # pairs factor phi / gcd(phi, phi') once, and take a gcd only for
    # gcd(phi, phi') and for the coprime verdict of each singleton
    gcds, factored = [], []
    count_calls(monkeypatch, control, "poly_gcd", gcds)
    count_calls(monkeypatch, irreducible, "factors", factored)
    for g in (path(8), cycle(8)):  # phi squarefree, phi with repeated roots
        phi = graph_char_poly(g)
        whole = PairSpec.from_subset(g, range(8))
        gcds.clear()
        full_report(whole)
        assert gcds == [(numerator_coeffs(whole), phi)] and factored == [], g
        gcds.clear()
        full_reports(g, [PairSpec.from_subset(g, s) for s in all_subsets(8)])
        d = poly_gcd(phi, derivative(phi))
        assert factored == [(exact_div(phi, d),)], g
        singletons = [(deleted, phi) for deleted in vertex_deleted_char_polys(g)]
        assert gcds == [(phi, derivative(phi)), *singletons], g
        factored.clear()


def test_cone_charpoly_identity_examples():
    d, f = cone_charpoly_identity(K1, [0])
    assert d == (-1, 0, 1)
    d, f = cone_charpoly_identity(path(2), [0, 1])
    assert d == (-2, -3, 0, 1)
    g = path(3)
    d, f = cone_charpoly_identity(g, [])
    assert d == (0, *graph_char_poly(g))


def test_cone_transfer_examples():
    assert cone_transfer_check(path(3), [0])
    assert not cone_transfer_check(cycle(4), [0])


def test_path_extension_controllability_family():
    g = path(3)
    for k in range(1, 5):
        ext, far = path_extension(g, [0], k)
        assert is_controllable_rank(PairSpec.from_subset(ext, [far]))


def irreducible_charpoly(g):
    factors = char_poly_factors(g)
    return factors is not None and len(factors) == 1


def test_charpoly_irreducible():
    assert not irreducible_charpoly(path(2))  # t^2 - 1
    assert char_poly_factors(path(2)) == ((-1, 1), (1, 1))
    assert not irreducible_charpoly(path(3))  # root 0
    assert char_poly_factors(path(3)) == ((0, 1), (-2, 0, 1))
    assert not irreducible_charpoly(empty(13))  # t^13: no degree cap
    assert char_poly_factors(empty(13)) is None
    assert irreducible_charpoly(K1)


def test_irreducible_charpoly_implies_all_controllable():
    # the corollary: irreducible phi forces (X, V) and every (X, u) controllable
    found = 0
    for g in census_graphs(6):
        if irreducible_charpoly(g):
            found += 1
            assert is_controllable_rank(PairSpec.from_subset(g, range(g.v)))
            for u in range(g.v):
                assert is_vertex_controllable(g, u)
    assert found > 0


def test_from_vector_validation():
    with pytest.raises(ValueError):
        PairSpec.from_vector(path(3), [1, 0])
    with pytest.raises(ValueError, match="integer vector required"):
        PairSpec.from_vector(path(3), [Fraction(1, 2), 0, 0])
    # integral Fractions are integers
    p = PairSpec.from_vector(path(3), [Fraction(2), 0, Fraction(-1)])
    assert p.vector == (2, 0, -1) and p.subset is None


def subset_count(g):
    return controllable_subset_count(g, char_poly_factors(g))[0]


def test_subset_count_matches_per_subset_loop():
    graphs = [*all_graphs_upto(6), *census_graphs(7)[::7]]
    for g in graphs:
        assert subset_count(g) == subset_count_by_rank(g), g
    assert subset_count(Graph.from_edges(0, ())) == 1  # the empty subset
    assert subset_count(K1) == 1


def graphs_beyond_data():
    """Paths, cycles and seeded G(n, 1/2) graphs on 9 and 10 vertices,
    past the 8 of data/."""
    for n in (9, 10):
        yield path(n)
        yield cycle(n)
        for seed in range(2):
            bits = random.Random(seed).getrandbits(n * (n - 1) // 2)
            edges = itertools.combinations(range(n), 2)
            yield Graph.from_edges(n, [e for k, e in enumerate(edges) if bits >> k & 1])


def test_subset_count_beyond_data_matches_per_subset_loop():
    for g in graphs_beyond_data():
        assert subset_count(g) == subset_count_by_rank(g), g


def test_full_reports_beyond_data_match_one_pair_calls():
    # the vertex-walk table against one direct walk per pair
    for g in graphs_beyond_data():
        pairs = [PairSpec.from_subset(g, s) for s in all_subsets(g.v)]
        alone = [full_report(p) for p in pairs]
        assert with_verdicts(full_reports(g, pairs)) == with_verdicts(alone), g


def test_subset_count_full_verdict_matches_rank():
    # the factor route's verdict at S = V is the walk-matrix rank's
    for g in all_graphs_upto(7):
        _, whole = controllable_subset_count(g, char_poly_factors(g))
        assert whole == is_controllable_rank(PairSpec.from_subset(g, range(g.v))), g


def test_subset_count_refuses_wrong_factors():
    # P3: phi = t (t^2 - 2) is squarefree, and (P3, V) is not controllable
    g = path(3)
    with pytest.raises(InternalConsistencyError, match="squarefree"):
        controllable_subset_count(g, None)
    with pytest.raises(InternalConsistencyError, match="S = V"):
        controllable_subset_count(g, (graph_char_poly(g),))
    with pytest.raises(InternalConsistencyError, match="squarefree"):
        controllable_subset_count(complete(3), ((1, 1), (-2, 1)))


def test_vertex_count_matches_gcd_oracle():
    # no factor of phi divides phi(X minus u) iff the two are coprime
    for g in all_graphs_upto(7):
        assert controllable_vertex_count(g, char_poly_factors(g)) == vertex_count_by_gcd(g), g
    assert controllable_vertex_count(path(3), char_poly_factors(path(3))) == 2


def test_walk_rank_bounded_by_minimal_polynomial_degree():
    # every column A^k z lies in {p(A) z : deg p < d}, d = rank of I, A, ...,
    # A^{v-1} = deg of A's minimal polynomial = number of distinct eigenvalues
    for g in all_graphs_upto(5):
        d = naive_power_rank(g.rows)
        assert d == distinct_root_count(graph_char_poly(g)), g
        for s in all_subsets(g.v):
            assert walk_matrix_rank(PairSpec.from_subset(g, s)) <= d, (g, s)


def test_gram_rank_matches_flattened_powers_rank(monkeypatch):
    # the subset count's first rank is the Gram matrix [tr A^(k+l)] of the
    # packed powers; it must be the Hankel matrix of the traces read from
    # one list-based walk per vertex, and have the Bareiss rank of the
    # flattened powers I, A, ..., A^(v-1) that it replaced
    ranked = []
    count_calls(monkeypatch, control, "int_rank", ranked)
    graphs = [*all_graphs_upto(7), *graphs_beyond_data()]
    for g in graphs:
        v = g.v
        ranked.clear()
        controllable_subset_count(g, char_poly_factors(g))
        gram = ranked[0][0]
        walks = [krylov_columns(g.rows, [int(i == u) for i in range(v)], 2 * v - 1) for u in range(v)]
        traces = [sum(walks[u][m][u] for u in range(v)) for m in range(2 * v - 1)]
        assert gram == [traces[k : k + v] for k in range(v)], g
        flat = [[x for w in walks for x in w[k]] for k in range(v)]
        assert int_rank(gram) == int_rank(flat), g


def test_vertex_walks_unpack_the_powers_of_complete_graphs():
    # K_v has the most walks of any graph on v vertices, nearest the slot
    # bound (v-1)^k
    for v in range(13):
        g = complete(v)
        direct = [krylov_columns(g.rows, [int(i == u) for i in range(v)], v) for u in range(v)]
        assert vertex_walks(g) == direct, v
        # the Gram route: only K_0, K_1 and K_2 have simple eigenvalues
        assert subset_count(g) == {0: 1, 1: 1, 2: 2}.get(v, 0), v


def test_repeated_eigenvalue_means_no_controllable_subset():
    for n in range(3, 9):
        assert subset_count(complete(n)) == 0
    for n in range(2, 9):
        assert subset_count(empty(n)) == 0
    for n in range(1, 9):
        assert subset_count(path(n)) > 0
