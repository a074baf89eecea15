"""Bipartite states used by the detection experiments.

Ensemble states live in the symmetric (Dicke) subspace of M qubits per side,
dimension M+1 each, so the joint space has dimension (M+1)^2.  Collective
spins follow the Pauli-sum convention S = sum_l sigma_l, which makes the S^z
eigenvalue of Dicke index k equal to M - 2k.  Joint amplitudes are stored
flat with index j*(M+1) + k, j being the A-side Dicke index; this layout is
the contract shared with the partial transpose and the CSV exports.
A PureState is checked as the one row of a PureStateStack, and a
WernerState's mu by mixing_weights, the rule of a grid's weights.
The one state door: as_werner reads a state as one psi and one mu of a
grid, or dense_matrix as the D x D matrix of a bipartition it must match.
szsz_evolve_blocks is the one evolution route: it yields a t grid in blocks
of at most GRID_CHUNK_BYTES of amplitudes, and spin_ensemble_state is the
first row of a one-time call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import INPUT_HERMITICITY_TOL, hermitian_eigenvalues, hermiticity_defect

NORM_TOL = 1e-12
STATE_TRACE_TOL = 1e-10
STATE_PSD_TOL = 1e-10
# bytes that one block of an evolved t grid (szsz_evolve_blocks), or one
# chunk of the criterion grid's factor products, their conjugate and
# amplitude rows, holds at a time
GRID_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state on a bipartite space, amplitudes stored flat,
    held to PureStateStack's rules as its one row: a failing state's error
    names row 0."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected one axis")
        stack = PureStateStack(self.dim_a, self.dim_b, amps[None])
        object.__setattr__(self, "amplitudes", stack.amplitudes[0])

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def density(self) -> "DensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dim_a, self.dim_b, m)


@dataclass(frozen=True, eq=False)
class PureStateStack:
    """Normalized pure states of one bipartite shape, the rows of one (n, D)
    amplitude array that is checked once as a whole.  Indexing gives the
    PureState of a row; matrices() is the (n, dim_a, dim_b) view of the
    array, which the grid routes slice without copying."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != self.dim_a * self.dim_b or not len(amps):
            raise ValueError(
                f"amplitude stack has shape {amps.shape}, "
                f"expected (n >= 1, {self.dim_a * self.dim_b})"
            )
        bad = np.flatnonzero(~np.isfinite(amps).all(axis=1))
        if bad.size:
            raise ValueError(f"amplitude row {bad[0]} contains NaN or Inf entries")
        # each row's norm from its real and imaginary parts, with no
        # temporary the size of the stack
        flat = amps.view(float)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
        if bad.size:
            raise ValueError(f"amplitude row {bad[0]} has norm {float(norms[bad[0]])!r}, "
                             f"which deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, i: int) -> PureState:
        return PureState(self.dim_a, self.dim_b, self.amplitudes[i])

    def matrices(self) -> np.ndarray:
        return self.amplitudes.reshape(-1, self.dim_a, self.dim_b)


def _require_density_rules(m: np.ndarray) -> np.ndarray:
    """A square complex matrix as it is, if it is finite, Hermitian within
    INPUT_HERMITICITY_TOL and of unit trace within STATE_TRACE_TOL: the one
    rule of DensityMatrix and of the raw arrays that as_matrix accepts.
    Positivity is left to DensityMatrix.validate."""
    if not np.isfinite(m).all():
        raise ValueError("density matrix contains NaN or Inf entries")
    defect = hermiticity_defect(m)
    if defect > INPUT_HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
    tr = m.trace()
    if abs(tr - 1.0) > STATE_TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} deviates from 1")
    return m


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
        object.__setattr__(self, "matrix", _require_density_rules(m))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def min_eigenvalue(self) -> float:
        return float(hermitian_eigenvalues(self.matrix)[0])

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
        object.__setattr__(self, "mu", float(mixing_weights([self.mu])[0]))

    def density(self) -> DensityMatrix:
        d = self.psi.dim
        m = self.mu * np.outer(self.psi.amplitudes, self.psi.amplitudes.conj())
        m[np.diag_indices(d)] += (1.0 - self.mu) / d
        return DensityMatrix(self.psi.dim_a, self.psi.dim_b, m)


def mixing_weights(mus) -> np.ndarray:
    """Werner mixing weights as a 1-D float array, each in [0, 1]: the one
    rule of a grid's weights and of WernerState's mu."""
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1:
        raise ValueError(f"mixing parameters must form a 1-D list, got shape {mus.shape}")
    outside = mus[~((mus >= 0.0) & (mus <= 1.0))]
    if outside.size:
        got = ", ".join(map(str, outside.tolist()))
        raise ValueError(f"mixing parameters must be in [0, 1] (none outside), got {got}")
    return mus


def as_state_stack(psis) -> "PureStateStack":
    """A PureStateStack as it is, or the one conversion of a non-empty list of
    PureStates that share one shape into a stack (a copy of their rows)."""
    if isinstance(psis, PureStateStack):
        return psis
    if len(psis) == 0:
        raise ValueError("a grid needs at least one state")
    shapes = {(psi.dim_a, psi.dim_b) if isinstance(psi, PureState) else None for psi in psis}
    if None in shapes:
        raise ValueError("grid states must be PureStates")
    if len(shapes) != 1:
        raise ValueError(f"grid states must share one shape, got {sorted(shapes)}")
    (da, db), = shapes
    return PureStateStack(da, db, np.array([psi.amplitudes for psi in psis]))


def as_matrix(state) -> np.ndarray:
    """Dense matrix of a DensityMatrix, PureState, WernerState, or raw square
    array, which is held to DensityMatrix's rules (_require_density_rules).
    A PureStateStack is refused by name: it is a grid of states."""
    if isinstance(state, PureStateStack):
        raise TypeError("a PureStateStack is a grid of states, not one state: "
                        "it goes to CriterionGrid or PptGrid")
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, WernerState):
        return state.density().matrix
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    m = np.asarray(state, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _require_density_rules(m)


def require_bipartition(state, dim_a: int, dim_b: int, what: str = "observables"):
    """Reject a state whose own bipartition is not the dim_a x dim_b of what;
    a raw array has none and is left to the callers' size checks."""
    own = state.psi if isinstance(state, WernerState) else state
    if (isinstance(own, (DensityMatrix, PureState, PureStateStack))
            and (own.dim_a, own.dim_b) != (dim_a, dim_b)):
        raise ValueError(f"state dimensions {own.dim_a}x{own.dim_b} do not match "
                         f"{what} {dim_a}x{dim_b}")


def as_werner(state) -> WernerState | None:
    """A PureState as the WernerState of mu = 1, a WernerState as it is, and
    None for any other state, which takes dense_matrix."""
    if isinstance(state, PureState):
        return WernerState(state, 1.0)
    return state if isinstance(state, WernerState) else None


def dense_matrix(state, dim_a: int, dim_b: int, what: str = "observables") -> np.ndarray:
    """state as a D x D matrix, its own bipartition held to what's dim_a x
    dim_b (require_bipartition) and a raw array, which has none, to D."""
    require_bipartition(state, dim_a, dim_b, what)
    r = as_matrix(state)
    if r.shape[0] != dim_a * dim_b:
        raise ValueError(f"state dimension {r.shape[0]} does not match {what} {dim_a * dim_b}")
    return r


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


def szsz_evolve_blocks(state: PureState, ts):
    """exp(i S^z_A S^z_B t) applied for each t of ts, in the joint Dicke basis,
    as PureStateStacks of consecutive times whose amplitudes take at most
    GRID_CHUNK_BYTES each (at least one time per block), so a sweep holds
    one block at a time.

    The amplitude at (j, k) picks up the phase exp(i (M-2j)(M-2k) t), so the
    norm is preserved exactly.  The product (M-2j)(M-2k) takes far fewer
    distinct values than D (85 for D = 441 at M = 20); their table and the
    index of each entry into it are formed once per call, and the times are
    checked before the first block.  The distinct products are symmetric
    about 0, so in a block exp is evaluated once per nonnegative product and
    t, with the arguments i t (M-2j)(M-2k) formed as for one entry at a
    time, and each negative product's phase is the conjugate of its
    mirror's, the same bits as its own exp.  The table is gathered into one
    (n, D) array, which is multiplied by the start amplitudes in place and
    checked once, as a PureStateStack; the table is freed before the block
    is handed on.  Every row is computed alone, so the blocks do not change
    a bit of it.
    """
    if state.dim_a != state.dim_b:
        raise ValueError("ensembles must have equal dimension")
    m = state.dim_a - 1
    sz = (m - 2 * np.arange(m + 1)).astype(float)
    products, index = np.unique(np.outer(sz, sz).ravel(), return_inverse=True)
    # products[i] = -products[-1 - i]; the first `negative` are below 0
    negative = int(np.searchsorted(products, 0.0))
    ts = np.asarray(ts, dtype=float).ravel()
    if not ts.size:
        raise ValueError("the evolution needs at least one time")
    if not np.isfinite(ts).all():
        raise ValueError(f"evolution time {int(np.argmin(np.isfinite(ts)))} is not finite")
    rows = max(1, GRID_CHUNK_BYTES // state.amplitudes.nbytes)

    def blocks():
        for start in range(0, len(ts), rows):
            args = np.array([1j * t for t in ts[start:start + rows]], dtype=complex)[:, None]
            table = np.empty((len(args), len(products)), dtype=complex)
            np.exp(args * products[negative:], out=table[:, negative:])
            np.conjugate(table[:, len(products) - negative:][:, ::-1], out=table[:, :negative])
            amps = np.take(table, index, axis=1)
            del args, table  # not held while the consumer reduces the block
            np.multiply(state.amplitudes, amps, out=amps)
            yield PureStateStack(state.dim_a, state.dim_b, amps)

    return blocks()


def spin_ensemble_state(m: int, t: float) -> PureState:
    """exp(i S^z_A S^z_B t) applied to the doubly x-polarized ensemble pair,
    the first row of szsz_evolve_blocks of the one time t."""
    c = spin_coherent_x(m)
    return next(szsz_evolve_blocks(product_state(c, c), [t]))[0]
