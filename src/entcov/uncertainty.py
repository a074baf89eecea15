"""N-operator Schrodinger uncertainty residuals and their identification
with the matrix invariants (principal-minor sums) of the uncertainty matrix.

The order-k invariant of a Hermitian matrix is the sum of its k x k
principal minors, equal to the elementary symmetric polynomial of the
eigenvalues.  For the uncertainty matrix these invariants collect the
k-operator uncertainty residuals: order 1 sums the variances, order 2 sums
the pairwise residuals, and for three operators the determinant is the
triple residual itself.  All of them are nonnegative for valid states.
Every residual here is a principal minor of the uncertainty matrix built
by criterion.covariance_commutation, for pure and mixed states alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .criterion import covariance_commutation, uncertainty_matrix
from .linalg import hermitian_eigenvalues

RESIDUAL_FLOOR = -1e-9


def variance(rho, op) -> float:
    """sigma^2 = <xi^2> - <xi>^2."""
    v, _ = covariance_commutation(rho, [op])
    return float(v[0, 0])


def schrodinger_I2(rho, op1, op2) -> float:
    """Two-operator residual sigma_1^2 sigma_2^2 - |V_12|^2 - |Omega_12 / 2|^2:
    the determinant of the 2x2 uncertainty matrix.

    Nonnegative for every valid state; zero when the bound is saturated.
    """
    return float(np.linalg.det(uncertainty_matrix(rho, [op1, op2])).real)


def schrodinger_I3(rho, op1, op2, op3) -> float:
    """Three-operator residual: the determinant of the 3x3 uncertainty
    matrix, for pure and mixed states alike.

    On a pure state the uncertainty matrix is the Gram matrix of the overlap
    vectors (xi_i - <xi_i>)|psi>, so this is the overlap form of the
    three-operator bound written as one determinant.
    """
    return float(np.linalg.det(uncertainty_matrix(rho, [op1, op2, op3])).real)


def invariant_decomposition(m, k: int) -> float:
    """Sum of all k x k principal minors of a Hermitian matrix.

    Equals the elementary symmetric polynomial e_k of the eigenvalues, so
    k=1 is the trace and k=N the determinant.
    """
    eigs = hermitian_eigenvalues(m)
    n = eigs.size
    if not 1 <= k <= n:
        raise ValueError(f"invariant order k={k} outside [1, {n}]")
    # charpoly coefficients alternate in sign: prod(x - l_i) = sum (-1)^k e_k x^(n-k)
    coeffs = np.poly(eigs)
    return float((-1) ** k * coeffs[k])


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Uncertainty residuals by index subset plus the invariant ladder.

    Every entry must clear the numerical floor -1e-9; a violation means the
    inputs were not a valid state and Hermitian operators.
    """

    n: int
    i_values: dict
    invariant_sums: dict

    def __post_init__(self):
        for subset, value in self.i_values.items():
            if value < RESIDUAL_FLOOR:
                raise ValueError(f"residual I{subset} = {value:.3e} is negative")
        for order, value in self.invariant_sums.items():
            if value < RESIDUAL_FLOOR:
                raise ValueError(f"order-{order} invariant {value:.3e} is negative")


def uncertainty_report(rho, observables) -> UncertaintyReport:
    """Residuals for all subsets up to order three plus every invariant sum.

    Subset residuals are the principal minors of the uncertainty matrix, so
    one matrix evaluation covers the whole report.
    """
    u = uncertainty_matrix(rho, observables)
    n = u.shape[0]
    i_values: dict = {}
    for j in range(n):
        i_values[(j,)] = float(u[j, j].real)
    for subset in chain(combinations(range(n), 2), combinations(range(n), 3)):
        i_values[subset] = float(np.linalg.det(u[np.ix_(subset, subset)]).real)
    sums = {k: invariant_decomposition(u, k) for k in range(1, n + 1)}
    return UncertaintyReport(n=n, i_values=i_values, invariant_sums=sums)
