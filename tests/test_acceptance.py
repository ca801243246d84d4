"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are the slow, exhaustive checks; the per-module test files cover the
same code on small inputs.  Everything here is exact integer or rational
arithmetic, so every comparison is equality with zero tolerance.
"""

import math
import random
import time

from ctrlgraph import census as census_mod
from ctrlgraph import control, laplacian, lti, pairiso
from ctrlgraph.control import PairSpec, graph_char_poly
from ctrlgraph.graphs import (
    automorphisms,
    complement,
    complete,
    covering_radius,
    cycle,
    diameter,
    is_connected,
    is_vertex_transitive,
    path,
    path_extension,
)
from ctrlgraph.polys import poly_gcd, sub

from conftest import EXPECTED_COUNTS, all_subsets, census_graphs, census_lines
from oracles import distinct_root_count


def report(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_characterization_equivalence():
    checked = 0
    for n in range(1, 7):
        for g in census_graphs(n):
            for s in all_subsets(n):
                # full_report raises InternalConsistencyError on any
                # disagreement between the rank/pole/coprime verdicts
                control.full_report(PairSpec.from_subset(g, s))
                checked += 1
    report(1, "characterization equivalence", checked == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 + 156 * 64)


def test_criterion_02_cone_charpoly_identity():
    for n in range(1, 6):
        for g in census_graphs(n):
            for s in all_subsets(n):
                control.cone_charpoly_identity(g, s)
    report(2, "cone characteristic polynomial identity", True)


def test_criterion_03_cone_transfer_and_path_family():
    for n in range(1, 6):
        for g in census_graphs(n):
            for s in all_subsets(n):
                control.cone_transfer_check(g, s)
    seeds = []
    for n in range(4, 7):
        for g in census_graphs(n):
            for s in all_subsets(n):
                if s and control.is_controllable_rank(PairSpec.from_subset(g, s)):
                    seeds.append((g, s))
            if len(seeds) >= 20:
                break
        if len(seeds) >= 20:
            break
    assert len(seeds) >= 20
    for g, s in seeds[:20]:
        for k in range(1, 7):
            ext, end = path_extension(g, s, k)
            assert control.is_controllable_rank(PairSpec.from_subset(ext, [end]))
    report(3, "cone transfer + path family", True)


def test_criterion_04_covering_radius_and_diameter():
    for n in range(1, 7):
        for g in census_graphs(n):
            for s in all_subsets(n):
                if not s:
                    continue
                r = covering_radius(g, s)
                if r == math.inf:
                    continue
                rank = control.walk_matrix_rank(PairSpec.from_subset(g, s))
                assert r <= rank - 1, (g, s, r, rank)
    for n in range(1, 8):
        for g in census_graphs(n):
            if not is_connected(g):
                continue
            assert diameter(g) + 1 <= distinct_root_count(graph_char_poly(g))
    report(4, "covering radius bound + diameter corollary", True)


def _no_symmetry_fixes(g, s):
    ss = frozenset(s)
    for perm in automorphisms(g):
        if any(perm[u] != u for u in range(g.v)):
            if frozenset(perm[u] for u in ss) == ss:
                return False
    return True


def test_criterion_05_automorphism_lemma():
    violations = 0
    for n in range(1, 8):
        for g in census_graphs(n):
            if n <= 6:
                subsets = list(all_subsets(n))
            else:
                subsets = [(u,) for u in range(n)] + [tuple(range(n))]
            for s in subsets:
                if control.is_controllable_rank(PairSpec.from_subset(g, s)):
                    if not _no_symmetry_fixes(g, s):
                        violations += 1
    report(5, "controllable pairs have no fixing automorphism", violations == 0)


def test_criterion_06_vertex_transitive_graphs():
    rng = random.Random(61803)
    targets = []
    for n in range(3, 9):
        targets.append(cycle(n))
        targets.append(complete(n))
    for n in range(3, 9):
        for g in census_graphs(n):
            if len(set(g.degrees())) == 1 and is_vertex_transitive(g):
                targets.append(g)
    exceptions = 0
    for g in targets:
        n = g.v
        if n <= 6:
            subsets = list(all_subsets(n))
        else:
            subsets = [
                tuple(u for u in range(n) if rng.randrange(2))
                for _ in range(1000)
            ]
        for s in subsets:
            if control.is_controllable_rank(PairSpec.from_subset(g, s)):
                exceptions += 1
    report(6, "vertex-transitive graphs never controllable", exceptions == 0)


def test_criterion_07_complement_invariance():
    for n in range(1, 8):
        for g in census_graphs(n):
            full = PairSpec.from_subset(g, range(n))
            cfull = PairSpec.from_subset(complement(g), range(n))
            assert control.is_controllable_rank(full) == control.is_controllable_rank(cfull)
    report(7, "complement invariance", True)


def test_criterion_08_algebra_basis():
    for n in range(1, 6):
        for g in census_graphs(n):
            for s in all_subsets(n):
                # raises InternalConsistencyError on disagreement
                control.algebra_basis_check(PairSpec.from_subset(g, s))
    report(8, "walk algebra basis check", True)


def test_criterion_09_q_matrix_suite():
    found_cross = 0
    found_involutions = 0
    for n in range(2, 8):
        classes = {}
        for g in census_graphs(n):
            classes.setdefault(graph_char_poly(g), []).append(g)
        for cls in classes.values():
            candidates = []
            for g in cls:
                for s in [tuple(range(n))] + [(u,) for u in range(n)]:
                    p = PairSpec.from_subset(g, s)
                    if control.is_controllable_rank(p):
                        candidates.append(p)
            for i in range(len(candidates)):
                for j in range(i + 1, len(candidates)):
                    p1, p2 = candidates[i], candidates[j]
                    if not pairiso.pairs_isomorphic(p1, p2):
                        continue
                    pairiso.q_matrix(p1, p2)  # verifies QQ^T, QAQ^T, Qy internally
                    found_cross += 1
                    if p1.graph == p2.graph and len(p1.subset) == 1:
                        pairiso.q_involution_check(p1.graph, p1.subset, p2.subset)
                        found_involutions += 1
    report(9, "Q-matrix identities", found_cross > 0 and found_involutions > 0)


def test_criterion_10_canonical_form():
    rng = random.Random(31415)
    seen = {}
    for n in range(1, 8):
        for g in census_graphs(n):
            if not control.is_controllable_rank(PairSpec.from_subset(g, range(n))):
                continue
            canon = pairiso.canonical_walk_matrix(g)
            for _ in range(100):
                perm = rng.sample(range(n), n)
                assert pairiso.canonical_walk_matrix(g.relabel(perm)) == canon
            assert canon not in seen, (g, seen[canon])
            seen[canon] = g
    report(10, "canonical walk matrix", len(seen) == 1 + 8 + 92)


def test_criterion_11_johnson_newman():
    pairs = 0
    for n in range(1, 8):
        classes = {}
        for g in census_graphs(n):
            classes.setdefault(graph_char_poly(g), []).append(g)
        for cls in classes.values():
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    # raises InternalConsistencyError when the generating
                    # function criterion and complement cospectrality split
                    pairiso.johnson_newman_check(cls[i], cls[j])
                    pairs += 1
    report(11, "generating function vs complement cospectrality", pairs > 0)


def test_criterion_12_path_facts():
    phi = {0: (1,), 1: (0, 1)}
    for n in range(1, 21):
        phi[n + 1] = graph_char_poly(path(n + 1))
        assert phi[n + 1] == sub((0, *phi[n]), phi[n - 1])
        assert poly_gcd(phi[n + 1], phi[n]) == (1,)
    for n in range(1, 13):
        assert control.is_controllable_rank(PairSpec.from_subset(path(n), [0]))
    report(12, "path recurrence, coprimality, end-vertex control", True)


def test_criterion_13_laplacian_edge_formulas():
    for n in range(2, 7):
        for g in census_graphs(n):
            for i in range(n):
                for j in range(i + 1, n):
                    mode = "delete" if g.has_edge(i, j) else "add"
                    # raises InternalConsistencyError on any mismatch
                    laplacian.edge_perturbation_polys(g, i, j, mode)
    controllable_pairs = 0
    for n in range(3, 7):
        for g in census_graphs(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if laplacian.laplacian_pair_controllable(g, i, j):
                        laplacian.laplacian_pair_automorphism_check(g, i, j)
                        controllable_pairs += 1
    report(13, "Laplacian edge identities + automorphism consequence",
           controllable_pairs > 0)


def test_criterion_14_lti():
    rng = random.Random(271828)
    done = 0
    while done < 50:
        d = rng.randint(1, 5)
        sys_ = lti.DiscreteSystem.create(
            [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
        )
        inputs = [rng.randint(-3, 3) for _ in range(3 * d)]
        ok, first_bad = lti.generating_identity_check(sys_, inputs, 3 * d)
        assert ok and first_bad is None
        done += 1
    recovered = 0
    while recovered < 20:
        d = rng.randint(1, 5)
        sys_ = lti.DiscreteSystem.create(
            [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
            [rng.randint(-3, 3) for _ in range(d)],
        )
        if not lti.is_observable(sys_.a, sys_.c):
            continue
        states = lti.simulate(sys_, [0] * d, d - 1)
        observed = lti.outputs(sys_, states)
        state = lti.recover_state(sys_, observed, 0)
        assert state == list(sys_.x0)
        recovered += 1
    k2 = lti.DiscreteSystem.create([[0, 1], [1, 0]], [1, 0], [1, 0])
    assert lti.transfer_function(k2) == ((-1,), (-1, 0, 1))  # 1/(1 - t^2)
    report(14, "linear system identities", True)


# Per-n census summary (graphs, controllable with S = V, with a controllable
# vertex, irreducible characteristic polynomial), recorded from the
# inverse-and-interpolate adjugate route before the Faddeev-LeVerrier pass
# replaced it.
CENSUS_SUMMARY = {
    n: dict(zip(("graphs", "controllable", "with_controllable_vertex",
                 "irreducible_charpoly"), counts))
    for n, counts in {
        1: (1, 1, 1, 1),
        2: (2, 0, 1, 0),
        3: (4, 0, 1, 0),
        4: (11, 0, 2, 0),
        5: (34, 0, 9, 0),
        6: (156, 8, 37, 7),
        7: (1044, 92, 414, 54),
        8: (12346, 2332, 5984, 1943),
    }.items()
}


def test_criterion_15_census():
    t0 = time.monotonic()
    lines = [line for n in range(1, 9) for line in census_lines(n)]
    rows, summary = census_mod.run_census(
        lines, census_mod.CensusConfig(workers=4)
    )
    elapsed = time.monotonic() - t0
    assert summary.errors == 0
    for n in range(1, 9):
        assert summary.per_n[n]["graphs"] == EXPECTED_COUNTS[n]
    counts = [summary.per_n[n]["controllable"] for n in range(1, 9)]
    assert counts[:5] == [1, 0, 0, 0, 0]
    assert counts[5] > 0
    fractions = [counts[n - 1] / EXPECTED_COUNTS[n] for n in (6, 7, 8)]
    assert fractions[0] < fractions[1] < fractions[2]
    # the paper's counts of graphs controllable with S = V
    assert counts[5:] == [8, 92, 2332]
    assert summary.per_n == CENSUS_SUMMARY
    ok = elapsed < 1800
    print(f"census over {len(lines)} graphs took {elapsed:.1f}s on 4 workers")
    report(15, "census counts and runtime", ok)
