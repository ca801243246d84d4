"""Discrete single-input single-output linear systems, exactly.

State recurrence x_{n+1} = A x_n + u_n b with output c^T x_n.  Everything
is rational arithmetic: trajectories, Kalman matrices, the transfer
function c^T (I - tA)^{-1} b as a ratio of integer polynomials, and exact
state recovery from an invertible observability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrices import (
    ExactMatrix,
    adjugate_samples,
    bilinear_numerator_fractions,
    clear_denominators,
    krylov_columns,
    mat_rank,
    solve,
)
from .polys import IntPoly, RationalFunction


@dataclass(frozen=True)
class DiscreteSystem:
    a: ExactMatrix
    b: tuple
    c: tuple
    x0: tuple

    def __post_init__(self):
        d = self.a.rows
        if not self.a.is_square:
            raise ValueError("state matrix must be square")
        if len(self.b) != d or len(self.c) != d or len(self.x0) != d:
            raise ValueError("vector dimensions must match the state matrix")

    @property
    def dim(self) -> int:
        return self.a.rows

    @classmethod
    def create(cls, a_rows, b, c, x0=None) -> "DiscreteSystem":
        a = ExactMatrix.from_rows(a_rows)
        if x0 is None:
            x0 = [0] * a.rows
        return cls(a, tuple(b), tuple(c), tuple(x0))


def simulate(sys: DiscreteSystem, inputs: Sequence, steps: int) -> list[list]:
    """States x_0 .. x_steps under the given input sequence."""
    if len(inputs) < steps:
        raise ValueError("need at least `steps` input values")
    states = [list(sys.x0)]
    for n in range(steps):
        x = sys.a.matvec(states[-1])
        u = inputs[n]
        states.append([xi + u * bi for xi, bi in zip(x, sys.b)])
    return states


def outputs(sys: DiscreteSystem, states: Sequence[Sequence]) -> list:
    return [sum(ci * xi for ci, xi in zip(sys.c, x)) for x in states]


def controllability_matrix(a: ExactMatrix, b: Sequence) -> ExactMatrix:
    """(b  Ab ... A^{d-1}b)."""
    if len(b) != a.rows:
        raise ValueError("dimension mismatch")
    return ExactMatrix.from_rows(krylov_columns(a.row_lists(), b, a.rows)).transpose()


def observability_matrix(a: ExactMatrix, c: Sequence) -> ExactMatrix:
    """(c^T; c^T A; ...; c^T A^{d-1})."""
    return controllability_matrix(a.transpose(), c).transpose()


def is_controllable(a: ExactMatrix, b: Sequence) -> bool:
    return mat_rank(controllability_matrix(a, b)) == a.rows


def is_observable(a: ExactMatrix, c: Sequence) -> bool:
    return mat_rank(observability_matrix(a, c)) == a.rows


def transfer_function(sys: DiscreteSystem) -> RationalFunction:
    """c^T (I - tA)^{-1} b, exactly.

    Built by reversing the coefficients of the adjugate numerator and the
    characteristic polynomial: det(I - tA) = t^d phi(1/t).
    """
    phi, bs = adjugate_samples(sys.a.row_lists())
    psi, scale = clear_denominators(bilinear_numerator_fractions(bs, sys.c, sys.b))
    phi = phi * scale
    # reverse both against degree d (psi has d coefficients, phi d + 1):
    # the numerator picks up t^{d-1}, so the extra factor of t in
    # (1/t) phi_rev cancels cleanly
    num_rev = IntPoly(reversed(psi))
    den_rev = IntPoly(reversed(phi.coeffs))
    return RationalFunction(num_rev, den_rev).normalize()


def generating_identity_check(sys: DiscreteSystem, inputs: Sequence, order: int):
    """Compare the simulated trajectory against the power-series expansion
    (I-tA)^{-1}x_0 + t u(t) (I-tA)^{-1} b, coefficient by coefficient.

    Returns (True, None) or (False, first mismatching order).
    """
    if len(inputs) < order:
        raise ValueError("need at least `order` input values")
    states = simulate(sys, inputs, order)
    # Neumann expansion: coefficient of t^n is A^n x0 + sum A^{n-1-k} u_k b
    rows = sys.a.row_lists()
    apow_x0 = krylov_columns(rows, sys.x0, order + 1)
    apow_b = krylov_columns(rows, sys.b, order)
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
