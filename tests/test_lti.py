import random
from fractions import Fraction

import pytest

from ctrlgraph.lti import (
    DiscreteSystem,
    controllability_matrix,
    generating_identity_check,
    is_controllable,
    is_observable,
    observability_matrix,
    outputs,
    recover_state,
    simulate,
    transfer_function,
)
from ctrlgraph.matrices import ExactMatrix, char_poly, mat_rank
from ctrlgraph.polys import IntPoly, RationalFunction

K2 = [[0, 1], [1, 0]]
P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
C4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def random_system(rng, d):
    a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    b = [rng.randint(-3, 3) for _ in range(d)]
    c = [rng.randint(-3, 3) for _ in range(d)]
    x0 = [rng.randint(-2, 2) for _ in range(d)]
    return DiscreteSystem.create(a, b, c, x0)


def test_simulate_zero_a_constant_input():
    sys = DiscreteSystem.create([[0, 0], [0, 0]], [2, 3], [1, 0])
    states = simulate(sys, [1] * 5, 5)
    for x in states[1:]:
        assert x == [2, 3]


def test_simulate_zero_input_is_matrix_power():
    sys = DiscreteSystem.create(P3, [0, 0, 0], [1, 0, 0], [1, 2, 3])
    states = simulate(sys, [0] * 4, 4)
    a = ExactMatrix.from_rows(P3)
    x = [1, 2, 3]
    for n in range(5):
        assert states[n] == x
        x = a.matvec(x)


def test_simulate_k2_alternates():
    sys = DiscreteSystem.create(K2, [1, 0], [1, 0])
    states = simulate(sys, [1, 0, 0, 0], 4)
    assert states[1] == [1, 0]
    assert states[2] == [0, 1]
    assert states[3] == [1, 0]


def test_simulate_input_length_check():
    sys = DiscreteSystem.create(K2, [1, 0], [1, 0])
    with pytest.raises(ValueError):
        simulate(sys, [1], 3)


def test_controllability_matrix_matches_walk_matrix():
    w = controllability_matrix(ExactMatrix.from_rows(P3), [1, 0, 0])
    assert mat_rank(w) == 3
    assert w.row_lists() == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]


def test_zero_a_rank_one():
    w = controllability_matrix(ExactMatrix.zero(3, 3), [1, 2, 0])
    assert mat_rank(w) == 1


def test_observability_transpose_identity():
    a = ExactMatrix.from_rows(P3)
    c = [1, -1, 2]
    assert observability_matrix(a, c) == controllability_matrix(a, c).transpose()


def test_observability_equals_controllability_for_symmetric():
    a = ExactMatrix.from_rows(C4)
    for vec in ([1, 0, 0, 0], [1, 1, 0, 0], [1, 2, 3, 4]):
        assert is_observable(a, vec) == is_controllable(a, vec)


def test_transfer_function_k2():
    sys = DiscreteSystem.create(K2, [1, 0], [1, 0])
    tf = transfer_function(sys)
    assert tf == RationalFunction(IntPoly([1]), IntPoly([1, 0, -1]))  # 1/(1-t^2)


def test_transfer_function_zero_b():
    sys = DiscreteSystem.create(K2, [0, 0], [1, 0])
    tf = transfer_function(sys)
    assert tf.normalize().num.is_zero


def test_transfer_denominator_is_reversed_charpoly():
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randint(1, 5)
        sys = random_system(rng, d)
        tf = transfer_function(sys)
        phi = char_poly(sys.a.row_lists())
        rev = IntPoly(reversed([phi[k] for k in range(d + 1)]))
        # denominators agree as rational functions (up to the cancelled gcd)
        lhs = RationalFunction(tf.num * rev, tf.den)
        num_part = lhs.normalize()
        assert num_part.den.is_constant or tf.den.divides(rev * tf.num)


def test_generating_identity_random_systems():
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(1, 4)
        sys = random_system(rng, d)
        inputs = [rng.choice([-1, 1]) for _ in range(12)]
        ok, bad = generating_identity_check(sys, inputs, 12)
        assert ok and bad is None


def test_generating_identity_detects_corruption():
    sys = DiscreteSystem.create(K2, [1, 0], [1, 0])
    states = simulate(sys, [1, 1, 1, 1], 4)
    # corrupt the trajectory at step 2 and recheck the series by hand
    series_ok, _ = generating_identity_check(sys, [1, 1, 1, 1], 4)
    assert series_ok
    corrupted = DiscreteSystem.create(K2, [1, 1], [1, 0])  # different b
    sim_corrupt = simulate(corrupted, [1, 1, 1, 1], 4)
    assert sim_corrupt != states


def test_recover_state_1d():
    sys = DiscreteSystem.create([[2]], [0], [3])
    assert recover_state(sys, [12], 0) == [Fraction(4)]


def test_recover_state_round_trip_p3():
    sys = DiscreteSystem.create(P3, [1, 0, 0], [1, 0, 0])
    states = simulate(sys, [1, -1, 2, 0, 0, 0, 0], 7)
    m = 4
    free = DiscreteSystem.create(P3, [0, 0, 0], [1, 0, 0], states[m])
    obs = outputs(free, simulate(free, [0] * 2, 2))
    assert recover_state(sys, obs, m) == [Fraction(x) for x in states[m]]


def test_recover_state_not_observable():
    sys = DiscreteSystem.create(C4, [0, 0, 0, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError, match="not observable"):
        recover_state(sys, [0, 0, 0, 0], 0)


def test_cayley_hamilton_rank_saturation():
    rng = random.Random(9)
    for _ in range(10):
        d = rng.randint(1, 5)
        sys = random_system(rng, d)
        w = controllability_matrix(sys.a, sys.b)
        extra = sys.a.matvec(w.transpose().row_lists()[d - 1])
        rows = w.transpose().row_lists() + [extra]
        from ctrlgraph.matrices import int_rank

        assert int_rank(rows, d) == mat_rank(w)


def test_dimension_validation():
    with pytest.raises(ValueError):
        DiscreteSystem.create(K2, [1], [1, 0])
