"""Discrete single-input single-output linear systems, exactly.

State recurrence x_{n+1} = A x_n + u_n b with output c^T x_n, over the
rationals.  Trajectories and Kalman matrices use the entries as given
(ints or Fractions); ranks and state recovery go through `mat_rank` and
`solve`.  The transfer function c^T (I - tA)^{-1} b scales the system to
integers once and is a (num, den) pair of integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrices import (
    bilinear_numerator_fractions,
    char_poly,
    clear_denominators,
    krylov_columns,
    mat_rank,
    mat_vec,
    solve,
    transpose,
)
from .polys import reduce_ratio, trim


@dataclass(frozen=True)
class DiscreteSystem:
    a: tuple
    b: tuple
    c: tuple
    x0: tuple

    def __post_init__(self):
        d = len(self.a)
        if any(len(r) != d for r in self.a):
            raise ValueError("state matrix must be square")
        if len(self.b) != d or len(self.c) != d or len(self.x0) != d:
            raise ValueError("vector dimensions must match the state matrix")

    @property
    def dim(self) -> int:
        return len(self.a)

    @classmethod
    def create(cls, a_rows, b, c, x0=None) -> "DiscreteSystem":
        a = tuple(map(tuple, a_rows))
        if x0 is None:
            x0 = [0] * len(a)
        return cls(a, tuple(b), tuple(c), tuple(x0))


def simulate(sys: DiscreteSystem, inputs: Sequence, steps: int) -> list[list]:
    """States x_0 .. x_steps under the given input sequence."""
    if len(inputs) < steps:
        raise ValueError("need at least `steps` input values")
    states = [list(sys.x0)]
    for n in range(steps):
        x = mat_vec(sys.a, states[-1])
        u = inputs[n]
        states.append([xi + u * bi for xi, bi in zip(x, sys.b)])
    return states


def outputs(sys: DiscreteSystem, states: Sequence[Sequence]) -> list:
    return [sum(ci * xi for ci, xi in zip(sys.c, x)) for x in states]


def controllability_matrix(a: Sequence[Sequence], b: Sequence) -> tuple:
    """(b  Ab ... A^{d-1}b)."""
    if len(b) != len(a):
        raise ValueError("dimension mismatch")
    return transpose(krylov_columns(a, b, len(a)))


def observability_matrix(a: Sequence[Sequence], c: Sequence) -> tuple:
    """(c^T; c^T A; ...; c^T A^{d-1})."""
    return transpose(controllability_matrix(transpose(a), c))


def is_controllable(a: Sequence[Sequence], b: Sequence) -> bool:
    return mat_rank(controllability_matrix(a, b)) == len(a)


def is_observable(a: Sequence[Sequence], c: Sequence) -> bool:
    return mat_rank(observability_matrix(a, c)) == len(a)


def transfer_function(sys: DiscreteSystem) -> tuple:
    """c^T (I - tA)^{-1} b as a (num, den) pair in lowest terms.

    A = B/D, b and c are scaled to integers once.  The integer pass on B
    gives phi, and phi with the Krylov columns of b on B gives
    psi = c^T adj(tI - B) b; reversing both against degree d
    gives c^T (I - tB)^{-1} b, since det(I - tB) = t^d phi(1/t) and psi's d
    coefficients pick up t^{d-1}.  Multiplying coefficient k of both by
    D^(d-k) then substitutes t/D for t, as I - tA = I - (t/D) B.
    """
    d = sys.dim
    flat, scale_a = clear_denominators([x for r in sys.a for x in r])
    b, scale_b = clear_denominators(sys.b)
    c, scale_c = clear_denominators(sys.c)
    rows = [flat[i * d : (i + 1) * d] for i in range(d)]
    phi = char_poly(rows)
    psi = bilinear_numerator_fractions(phi, c, krylov_columns(rows, b, d))
    num = [x * scale_a ** (d - k) for k, x in enumerate(reversed(psi))]
    den = [scale_b * scale_c * x * scale_a ** (d - k) for k, x in enumerate(reversed(phi))]
    return reduce_ratio(trim(num), trim(den))


def generating_identity_check(sys: DiscreteSystem, inputs: Sequence, order: int):
    """Compare the simulated trajectory against the power-series expansion
    (I-tA)^{-1}x_0 + t u(t) (I-tA)^{-1} b, coefficient by coefficient.

    Returns (True, None) or (False, first mismatching order).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if len(inputs) < order:
        raise ValueError("need at least `order` input values")
    states = simulate(sys, inputs, order)
    # Neumann expansion: coefficient of t^n is A^n x0 + sum A^{n-1-k} u_k b
    apow_x0 = krylov_columns(sys.a, sys.x0, order + 1)
    apow_b = krylov_columns(sys.a, sys.b, order)
    for n in range(order + 1):
        term = [
            x + sum(inputs[k] * apow_b[n - 1 - k][i] for k in range(n))
            for i, x in enumerate(apow_x0[n])
        ]
        if any(Fraction(a) != Fraction(b) for a, b in zip(states[n], term)):
            return False, n
    return True, None


def recover_state(sys: DiscreteSystem, observed: Sequence, m: int) -> list[Fraction]:
    """State at time m from d consecutive outputs, assuming zero input from
    time m on (so the outputs are c^T A^k x_m)."""
    d = sys.dim
    if len(observed) != d:
        raise ValueError(f"need exactly {d} consecutive outputs")
    omat = observability_matrix(sys.a, sys.c)
    try:
        return solve(omat, list(observed))
    except ValueError:
        raise ValueError("system is not observable: observability matrix is singular")
