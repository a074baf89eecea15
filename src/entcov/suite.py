"""Randomized property battery over random states and operator subsets.

Exercised by the uncertainty-suite CLI subcommand and by the acceptance
tests.  Each check accumulates its worst defect across all trials so a
single run documents how much numerical headroom every property has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import uncertainty_matrix
from .linalg import hermitize
from .uncertainty import invariant_decomposition, schrodinger_I2, schrodinger_I3, variance

PSD_FLOOR = -1e-9
GRAM_TOL = 1e-10
SYMMETRY_TOL = 1e-10
INVARIANT_TOL = 1e-9
DEFAULT_TRIALS = 1000
DEFAULT_MAX_N = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = hermitize(g)
    return h / max(1.0, np.linalg.norm(h))


def _random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def _random_mixture(rng: np.random.Generator, dim: int, rank: int):
    """Explicit ensemble (weights, pure vectors) and its density matrix."""
    weights = rng.dirichlet(np.ones(rank))
    vectors = [_random_pure(rng, dim) for _ in range(rank)]
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vectors))
    return weights, vectors, rho


def run_property_battery(trials: int = DEFAULT_TRIALS, max_n: int = DEFAULT_MAX_N,
                         seed: int = 0) -> list[CheckResult]:
    """Random mixed states, random operator subsets of size 1..max_n.

    Checks, per trial where applicable: the raw second-moment matrix gives a
    symmetric V and antisymmetric Omega; the uncertainty matrix is PSD; on
    mixtures it dominates the weighted pure-state uncertainty matrices; on
    pure states it equals the Gram matrix of the shifted operator vectors;
    and the invariant ladder matches the sums of uncertainty residuals.
    """
    if trials < 1 or max_n < 1:
        raise ValueError("trials and max_n must be positive")
    rng = np.random.default_rng(seed)

    worst_sym = 0.0
    worst_anti = 0.0
    worst_psd = 0.0
    worst_gram = 0.0
    worst_concavity = 0.0
    worst_invariant = 0.0
    triple_trials = 0

    for _ in range(trials):
        dim = int(rng.choice([4, 6, 9]))
        n = int(rng.integers(1, max_n + 1))
        mats = [_random_hermitian(rng, dim) for _ in range(n)]
        weights, vectors, rho = _random_mixture(rng, dim, int(rng.integers(1, 5)))

        # raw moments, every ordered pair traced independently
        means = np.array([np.einsum("ab,ba->", rho, x).real for x in mats])
        e = np.array([[np.einsum("ab,ba->", rho, x @ y) for y in mats] for x in mats])
        v_raw = e.real - np.outer(means, means)
        omega_raw = 2.0 * e.imag
        worst_sym = max(worst_sym, float(np.abs(v_raw - v_raw.T).max()))
        worst_anti = max(worst_anti, float(np.abs(omega_raw + omega_raw.T).max()))

        u = uncertainty_matrix(rho, mats)
        worst_psd = max(worst_psd, -float(np.linalg.eigvalsh(u)[0]))

        u_parts = sum(
            p * uncertainty_matrix(np.outer(vec, vec.conj()), mats)
            for p, vec in zip(weights, vectors)
        )
        gap = hermitize(u - u_parts)
        worst_concavity = max(worst_concavity, -float(np.linalg.eigvalsh(gap)[0]))

        psi = _random_pure(rng, dim)
        rho_pure = np.outer(psi, psi.conj())
        f = np.array([x @ psi - np.vdot(psi, x @ psi).real * psi for x in mats]).T
        gram = f.conj().T @ f
        u_pure = uncertainty_matrix(rho_pure, mats)
        worst_gram = max(worst_gram, float(np.abs(u_pure - gram).max()))

        order1 = sum(variance(rho_pure, x) for x in mats)
        worst_invariant = max(
            worst_invariant, abs(order1 - invariant_decomposition(u_pure, 1))
        )
        if n >= 2:
            order2 = sum(
                schrodinger_I2(rho_pure, mats[j], mats[k])
                for j in range(n) for k in range(j + 1, n)
            )
            worst_invariant = max(
                worst_invariant, abs(order2 - invariant_decomposition(u_pure, 2))
            )
        if n == 3:
            triple_trials += 1
            triple = schrodinger_I3(rho_pure, mats[0], mats[1], mats[2])
            worst_invariant = max(
                worst_invariant, abs(triple - invariant_decomposition(u_pure, 3))
            )

    return [
        CheckResult(
            "covariance matrix symmetric",
            worst_sym <= SYMMETRY_TOL,
            f"worst defect {worst_sym:.3e} over {trials} trials (tol {SYMMETRY_TOL:.0e})",
        ),
        CheckResult(
            "commutation matrix antisymmetric",
            worst_anti <= SYMMETRY_TOL,
            f"worst defect {worst_anti:.3e} over {trials} trials (tol {SYMMETRY_TOL:.0e})",
        ),
        CheckResult(
            "uncertainty matrix positive semidefinite",
            worst_psd <= -PSD_FLOOR,
            f"worst negative excursion {worst_psd:.3e} (floor {-PSD_FLOOR:.0e})",
        ),
        CheckResult(
            "mixture dominates weighted pure-state uncertainty",
            worst_concavity <= -PSD_FLOOR,
            f"worst negative excursion {worst_concavity:.3e} (floor {-PSD_FLOOR:.0e})",
        ),
        CheckResult(
            "pure-state uncertainty equals overlap matrix",
            worst_gram <= GRAM_TOL,
            f"worst entry defect {worst_gram:.3e} (tol {GRAM_TOL:.0e})",
        ),
        CheckResult(
            "invariant ladder matches residual sums",
            worst_invariant <= INVARIANT_TOL,
            f"worst mismatch {worst_invariant:.3e}, {triple_trials} triple trials "
            f"(tol {INVARIANT_TOL:.0e})",
        ),
    ]
