"""Bipartite states used by the detection experiments.

Ensemble states live in the symmetric (Dicke) subspace of M qubits per side,
dimension M+1 each, so the joint space has dimension (M+1)^2.  Collective
spins follow the Pauli-sum convention S = sum_l sigma_l, which makes the S^z
eigenvalue of Dicke index k equal to M - 2k.  Joint amplitudes are stored
flat with index j*(M+1) + k, j being the A-side Dicke index; this layout is
the contract shared with the partial transpose and the CSV exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermiticity_defect

NORM_TOL = 1e-12
STATE_HERMITICITY_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
STATE_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state on a bipartite space, amplitudes stored flat."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim_a * self.dim_b,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, "
                f"expected ({self.dim_a * self.dim_b},)"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitude vector contains NaN or Inf entries")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def density(self) -> "DensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dim_a, self.dim_b, m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix with a bipartition.

    Construction checks Hermiticity and trace; positivity needs an
    eigensolve and is checked by validate().
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if m.shape != (d, d):
            raise ValueError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        if not np.isfinite(m).all():
            raise ValueError("density matrix contains NaN or Inf entries")
        defect = hermiticity_defect(m)
        if defect > STATE_HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)[0])

    def validate(self) -> "DensityMatrix":
        """Additionally check positive semidefiniteness."""
        mn = self.min_eigenvalue()
        if mn < -STATE_PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {mn:.3e}")
        return self


@dataclass(frozen=True, eq=False)
class WernerState:
    """Werner mixture mu |psi><psi| + (1-mu) I/D of a pure state, kept as psi
    and mu; the D x D matrix is built only when density() is called."""

    psi: PureState
    mu: float

    def __post_init__(self):
        if not isinstance(self.psi, PureState):
            raise ValueError(f"psi must be a PureState, got {type(self.psi).__name__}")
        mu = float(self.mu)
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mixing parameter mu={mu} outside [0, 1]")
        object.__setattr__(self, "mu", mu)

    def density(self) -> DensityMatrix:
        d = self.psi.dim
        m = self.mu * np.outer(self.psi.amplitudes, self.psi.amplitudes.conj())
        m[np.diag_indices(d)] += (1.0 - self.mu) / d
        return DensityMatrix(self.psi.dim_a, self.psi.dim_b, m)


def mixing_weights(mus) -> np.ndarray:
    """A grid's Werner mixing weights as a 1-D float array, each in [0, 1]."""
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or not np.all((mus >= 0.0) & (mus <= 1.0)):
        raise ValueError(f"mixing parameters must be a list inside [0, 1], got {mus}")
    return mus


def amplitude_matrices(psis) -> np.ndarray:
    """The dim_a x dim_b amplitude matrices of a non-empty list of PureStates
    that share one shape, stacked as (n, dim_a, dim_b)."""
    shapes = {(psi.dim_a, psi.dim_b) if isinstance(psi, PureState) else None for psi in psis}
    if None in shapes:
        raise ValueError("grid states must be PureStates")
    if len(shapes) != 1:
        raise ValueError(f"grid states must share one shape, got {sorted(shapes)}")
    (da, db), = shapes
    return np.array([psi.amplitudes for psi in psis]).reshape(-1, da, db)


def as_matrix(state) -> np.ndarray:
    """Dense matrix of a DensityMatrix, PureState, WernerState, or raw square
    array."""
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, WernerState):
        return state.density().matrix
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    m = np.asarray(state, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt(2) on two qubits."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return PureState(2, 2, amps)


def werner_mix(psi: PureState, mu: float) -> DensityMatrix:
    """Convex mixture (1-mu)/D * identity + mu |psi><psi| as a dense matrix."""
    return WernerState(psi, mu).density()


def spin_coherent_x(m: int) -> np.ndarray:
    """Dicke-basis amplitudes of the maximally x-polarized M-qubit ensemble.

    c_k = sqrt(C(M, k) / 2^M) to within an ulp at every M: the exact integer
    binomial is scaled into [1/2, 2) by one correctly rounded division, so no
    power of two enters a float and only c_k itself can underflow (M > 2044).
    """
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    amps = []
    binom = 1
    for k in range(m + 1):
        b = binom.bit_length()
        # an odd exponent b - M is folded into the mantissa, which halves evenly
        b -= (b - m) % 2
        amps.append(math.ldexp(math.sqrt(binom / (1 << b)), (b - m) // 2))
        binom = binom * (m - k) // (k + 1)
    return np.array(amps)


def product_state(amps_a, amps_b) -> PureState:
    """Tensor two single-ensemble amplitude vectors into a joint PureState."""
    a = np.asarray(amps_a, dtype=complex)
    b = np.asarray(amps_b, dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("amplitude vectors must be one-dimensional")
    return PureState(a.size, b.size, np.kron(a, b))


def szsz_evolve(state: PureState, t: float) -> PureState:
    """Apply exp(i S^z_A S^z_B t) in the joint Dicke basis: one time of
    szsz_evolve_grid."""
    return szsz_evolve_grid(state, [t])[0]


def szsz_evolve_grid(state: PureState, ts) -> list[PureState]:
    """exp(i S^z_A S^z_B t) applied for each t of ts, in the joint Dicke basis.

    The amplitude at (j, k) picks up the phase exp(i (M-2j)(M-2k) t), so the
    norm is preserved exactly.  The evolved amplitudes of every t fill one
    (len(ts), D) array in place, a row at a time (a broadcast over all rows
    would hold numpy's 128 KB iteration buffers as well), and each evolved
    state is a row of it that passes the PureState checks on its own.
    """
    if state.dim_a != state.dim_b:
        raise ValueError("ensembles must have equal dimension")
    m = state.dim_a - 1
    sz = (m - 2 * np.arange(m + 1)).astype(float)
    phase = np.outer(sz, sz).ravel()
    ts = np.asarray(ts, dtype=float).ravel()
    amps = np.empty((ts.size, phase.size), dtype=complex)
    for t, row in zip(ts, amps):
        np.multiply(1j * t, phase, out=row)
        np.exp(row, out=row)
        np.multiply(state.amplitudes, row, out=row)
    return [PureState(state.dim_a, state.dim_b, a) for a in amps]


def spin_ensemble_state(m: int, t: float) -> PureState:
    """exp(i S^z_A S^z_B t) applied to the doubly x-polarized ensemble pair."""
    c = spin_coherent_x(m)
    return szsz_evolve(product_state(c, c), t)
