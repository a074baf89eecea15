"""Covariance and commutation matrices, the operator-level partial-transpose
criterion matrix, and verdict reporting.

V and Omega are the centered second moments of xi_j xi_k, the criterion
matrix those of PT_B(xi_j xi_k).  A local ObservableSet on pure states and
Werner mixtures takes the amplitude route, O(N dim^3) per psi with no D x D
array, whose one engine is CriterionGrid: its stored factors act on the
amplitude matrix Psi as a Psi and Psi b, the amplitudes of PT_B(I (x) b) psi,
so the grid of a set S holds the centered moments of S's partially
transposed members, S.pt_set.  The criterion of S is the transpose rule
(_transpose_b_pairs) applied to the grid of S, and the moments of S, PT_B
being an involution, are the grid of S.pt_set.  The grid forms p and the
centered Gram matrix G_c once per psi, in chunks within GRID_CHUNK_BYTES,
then every mu's moments; one PureState or WernerState is one psi and one
mu of a grid.
Otherwise one tracer (_trace_table) reads the set's cached pt_tables
against the state for the criterion, and against PT_B(rho) for the
moments, as Tr(rho X) = Tr(PT_B(rho) PT_B(X)); a raw operator list, whose
members must be finite and Hermitian by the set's rule, traces a per-call
table of its own products, for the moments only.

The criterion matrix is bilinear in the operators, so the Duan-Simon (ds)
test's, on the Holstein-Primakoff quadratures (S^y, S^z)_(A,B) / sqrt(2M),
is the spin sextet's quadrature block divided by 2M
(observables.hp_quadrature_block): a sweep forms the sextet's grid once
for both tests.

detect eigensolves one criterion matrix, or a stack of them in one call.
A CriterionReport holds the spectrum, or a stack of spectra, and the
tolerance only, and derives its minimum, determinant and verdict from
them: scalars for one matrix, arrays with one entry per member for a stack.

criterion_matrix_from_data rebuilds the criterion matrix from measured
correlations of local operators with definite transpose parity: the
parities sign V and Omega into the moments of the PT_B members, and the
transpose rule then gives the criterion, as on the grid.
correlation_data_from_state exports each member's derived pt_parity, and
a record's parities are held to is_unit_parity.  A record is rejected
unless some quantum state could produce it: V symmetric, Omega
antisymmetric and zero across the partition, and V + (i/2) Omega >= 0,
each within DATA_TOL of the record scale max(max|V|, max|Omega|), no floor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import (INPUT_HERMITICITY_TOL, hermitian_eigenvalues, hermiticity_defect,
                     hermitize, partial_transpose)
from .observables import SUPPORT_A, SUPPORT_B, Observable, ObservableSet
from .states import (GRID_CHUNK_BYTES, PureState, WernerState, as_matrix, as_state_stack,
                     mixing_weights, require_bipartition)

DEFAULT_VERDICT_TOL = 1e-9
DATA_TOL = 1e-10

ENTANGLED = "ENTANGLED"
UNDETECTED = "UNDETECTED"


class DataValidationError(ValueError):
    """Measured correlation data violates one of its structural invariants."""


def is_unit_parity(s) -> bool:
    """A record's transpose parity: a real +1 or -1 that is not a bool."""
    return not isinstance(s, bool) and isinstance(s, numbers.Real) and s in (1, -1)


def require_tolerance(tol) -> float:
    """The verdict tolerance, which must be finite and positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return float(tol)


def _raw_table(observables, dim: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Pairs j <= k, operators and products xi_j xi_k of a list of raw
    dim x dim arrays; an operator of another shape, with a NaN or Inf
    entry, or that is not Hermitian, is rejected by position."""
    mats = []
    for i, o in enumerate(observables):
        if isinstance(o, Observable):
            raise ValueError(f"observable {o.label!r} needs an ObservableSet to embed it")
        m = np.asarray(o, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"observable {i} has shape {m.shape}, expected "
                             f"({dim}, {dim}) for a state of dimension {dim}")
        mats.append(m)
    if not mats:
        raise ValueError("observable list is empty")
    singles = np.array(mats)
    bad = np.flatnonzero(~np.isfinite(singles).all(axis=(-2, -1)))
    if bad.size:
        raise ValueError(f"observable {bad[0]} contains NaN or Inf entries")
    bad = np.flatnonzero(hermiticity_defect(singles) > INPUT_HERMITICITY_TOL)
    if bad.size:
        raise ValueError(f"observable {bad[0]} is not Hermitian")
    pairs = [(j, k) for j in range(len(mats)) for k in range(j, len(mats))]
    return pairs, singles, np.array([mats[j] @ mats[k] for j, k in pairs])


def _trace_table(table, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means m_j = Tr(x_j r) and centered moments K[j,k] = Tr(X_jk r) - m_j m_k
    of a (pairs, singles x_j, products X_jk) table; the pairs j <= k are
    traced and their mirrors conjugated, exact for Hermitian r and xi_j."""
    pairs, singles, products = table
    j, k = np.array(pairs).T
    means = np.einsum("nab,ba->n", singles, r).real
    moments = np.einsum("pab,ba->p", products, r)
    c = np.zeros((len(singles), len(singles)), dtype=complex)
    c[j, k] = moments - means[j] * means[k]
    c[k, j] = np.conj(c[j, k])
    return means, c


def _centered_moments(rho, observables, transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Means and centered second moments of xi_j xi_k, or of PT_B(xi_j xi_k)
    when transposed: on the amplitude route one psi and one mu of the grid
    of the set's pt_set, or of the set with the transpose rule; otherwise
    _trace_table.  A raw operator list has no B side to transpose."""
    if not isinstance(observables, ObservableSet):
        if transposed:
            raise TypeError("the criterion matrix needs an ObservableSet")
        r = as_matrix(rho)
        return _trace_table(_raw_table(observables, r.shape[0]), r)
    if isinstance(rho, (PureState, WernerState)) and observables.is_local:
        if isinstance(rho, PureState):
            rho = WernerState(rho, 1.0)
        grid = CriterionGrid(observables if transposed else observables.pt_set)
        grid.add([rho.psi])
        means, k = next(grid._moments([rho.mu]))
        return means[0], _transpose_b_pairs(k[0], observables.on_b) if transposed else k[0]
    da, db = observables.dim_a, observables.dim_b
    require_bipartition(rho, da, db)
    r = as_matrix(rho)
    if r.shape[0] != da * db:
        raise ValueError(f"state dimension {r.shape[0]} does not match observables {da * db}")
    if not transposed:
        r = partial_transpose(r, da, db, "B")
    return _trace_table(observables.pt_tables, r)


def _covariance_parts(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V, the real part of the centered moments of xi_j xi_k symmetrized, and
    Omega, twice their imaginary part antisymmetrized, for each member of a
    stack (..., N, N)."""
    v, omega = centered.real, 2.0 * centered.imag
    return (v + np.swapaxes(v, -1, -2)) / 2, (omega - np.swapaxes(omega, -1, -2)) / 2


def _moments(rho, observables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, covariance V and commutation Omega from the centered moments of
    xi_j xi_k: the grid of the set's pt_set, or pt_tables against PT_B(rho)."""
    means, centered = _centered_moments(rho, observables, transposed=False)
    return (means, *_covariance_parts(centered))


def covariance_commutation(rho, observables) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix V and commutation matrix Omega in one pass.

    V[j,k] = <{xi_j, xi_k}>/2 - <xi_j><xi_k> and Omega[j,k] = -i <[xi_j, xi_k]>.
    """
    _, v, omega = _moments(rho, observables)
    return v, omega


def uncertainty_matrix(rho, observables) -> np.ndarray:
    """V + (i/2) Omega: Hermitian and positive semidefinite for any state."""
    v, omega = covariance_commutation(rho, observables)
    return hermitize(v + 0.5j * omega)


def _transpose_b_pairs(k: np.ndarray, on_b: np.ndarray) -> np.ndarray:
    """The transpose rule: PT_B(xi_j xi_k) = PT_B(xi_k) PT_B(xi_j) when both
    act on B, so entry (j,k) of such a pair takes the (k,j) value, in each
    member of a stack (..., N, N), in place; k is returned."""
    b = np.flatnonzero(on_b)
    k[..., b[:, None], b] = k[..., b, b[:, None]]
    return k


def _diagonal_scaling(f: np.ndarray, on_b: bool) -> np.ndarray | None:
    """For a factor with a real diagonal d and exactly zero off-diagonal
    entries, the scaling by d of the float view (real and imaginary parts)
    of an amplitude matrix: of its columns for a B factor, of its rows for
    an A factor.  None for any other factor."""
    d = np.diagonal(f)
    if np.any(d.imag) or np.count_nonzero(f) > np.count_nonzero(d):
        return None
    return np.repeat(d.real, 2) if on_b else d.real[:, None]


def _gram_factors(obs_set) -> list[tuple[np.ndarray, np.ndarray | None, bool]]:
    """For each member of a local set, its stored factor f, the
    _diagonal_scaling of f and whether it acts on B: the per-set setup of
    _centered_gram, formed once per grid."""
    return [(o.matrix, _diagonal_scaling(o.matrix, on_b), on_b)
            for o, on_b in zip(obs_set, obs_set.on_b)]


def _centered_gram(psis, obs_set, factors) -> tuple[np.ndarray, np.ndarray]:
    """p_j = Re<psi|v_j> and the Gram matrix G_c of v_j - p_j psi for each psi
    of psis, shapes (n_psi, N) and (n_psi, N, N).  The chunks are slices of
    the PureStateStack's amplitude array, not copies; a list of PureStates
    is stacked once (as_state_stack).

    v_j = a_j Psi or Psi f_j on the amplitude matrix Psi, over the set's
    factors (_gram_factors).  Each factor acts on a whole chunk of stacked
    amplitude matrices at once; a chunk holds as many psi as keep what the
    kernel allocates, v and the one temporary of its size, 2 N D 16 bytes
    per psi, within GRID_CHUNK_BYTES (three psi of the M = 20 sextet): the
    amplitude rows are views of the block, not allocations.  v and the
    temporary (the conjugate of psi, the outer products p psi^T, then the
    conjugate of v) share one allocation per call, which every chunk
    reuses: allocated per chunk, a sweep in one-psi blocks had the
    allocator return them to the system and fault them in anew for every
    block.  The outer products are one real multiply of p by the float
    view of psi, without a complex matmul of inner dimension 1: the values
    of (p + 0i) psi^T, where an exact zero may take the other sign (at
    t = 0, where psi is real), a difference no output shows.  Every psi
    is computed alone within its chunk, so the chunking does not change a
    bit of the result.  A factor with a
    real diagonal and exactly zero off-diagonal entries (S^z in the
    sextet, the rotated sextet and the quadratures) scales the rows or
    columns of Psi instead: the matmul would only add exact zeros to the
    same products, so the result is the same bit for bit.
    """
    da, db = obs_set.dim_a, obs_set.dim_b
    n = len(factors)
    chunk = max(1, GRID_CHUNK_BYTES // (2 * n * da * db * 16))
    stack = as_state_stack(psis)
    require_bipartition(stack, da, db)
    stack = stack.matrices()
    p = np.empty((len(stack), n))
    g_c = np.empty((len(stack), n, n), dtype=complex)
    work = np.empty((2, min(chunk, len(stack)), n, da, db), dtype=complex)
    for start in range(0, len(stack), chunk):
        mats = stack[start:start + chunk]
        amps = mats.reshape(len(mats), -1)
        # each product is written into its slot of v: no list to stack
        v, w = work[:, :len(amps)]
        for j, (f, scale, on_b) in enumerate(factors):
            if scale is not None:
                np.multiply(mats.view(float), scale, out=v[:, j].view(float))
            elif on_b:
                np.matmul(mats, f, out=v[:, j])
            else:
                np.matmul(f, mats, out=v[:, j])
        v, w = v.reshape(len(amps), n, -1), w.reshape(len(amps), n, -1)
        rows = slice(start, start + len(amps))
        # the conjugate of psi goes into w, which is free until the outer products
        p[rows] = np.matmul(v, np.conjugate(amps, out=w[:, 0])[:, :, None])[:, :, 0].real
        # p psi^T on the float views: all-real operands need no iteration
        # buffers, which a complex broadcast product would hold on top of v
        np.multiply(p[rows, :, None], amps.view(float)[:, None, :], out=w.view(float))
        v -= w
        np.matmul(np.conjugate(v, out=w), np.swapaxes(v, -1, -2), out=g_c[rows])
    return p, g_c


def _mu_moments(p, g_c, mus, obs_set):
    """For each mu of mus in turn, the means m = mu p + (1-mu) tau and
    centered second moments K = E - m m^T of mu |psi><psi| + (1-mu) I/D over
    a local set, for every psi whose p and G_c (_centered_gram) are given,
    shapes (n_psi, N) and (n_psi, N, N), formed as
    K = mu G_c + (1-mu) T_c + mu (1-mu) (p - tau)(p - tau)^T.

    Over the stored factors these are the moments of the members of
    obs_set.pt_set.  tau and T_c are the set's mixed_moments.  No means of
    order M are subtracted from second moments of order M^2, a cancellation
    that at a few hundred spins per side would lift rounding above the
    verdict tolerance.  One mu at a time, because a product broadcast over
    the whole grid would hold numpy's iteration buffers, larger than the
    grid itself.  Every mu's K is built in one buffer, in the order of the
    sum above, and the next mu overwrites it: a caller reads or copies each
    K before it asks for the next.
    """
    mus = mixing_weights(mus)
    tau, t_c = obs_set.mixed_moments
    shift = p - tau
    outer = shift[:, :, None] * shift[:, None, :]

    def moments():
        k = np.empty_like(g_c)
        scaled = np.empty_like(outer)
        for mu in mus:
            np.multiply(mu, g_c, out=k)
            k += (1.0 - mu) * t_c
            k += np.multiply(mu * (1.0 - mu), outer, out=scaled)
            yield mu * p + (1.0 - mu) * tau, k

    return moments()


def criterion_matrix(rho, obs_set: ObservableSet) -> np.ndarray:
    """C[j,k] = Tr[rho PT_B(xi_j xi_k)] - Tr[rho PT_B(xi_j)] Tr[rho PT_B(xi_k)],
    the transposed centered moments of _centered_moments.

    With a single observable this degenerates to the 1x1 variance of the
    transposed operator, which is never negative: one observable cannot
    detect anything.
    """
    return hermitize(_centered_moments(rho, obs_set, transposed=True)[1])


class CriterionGrid:
    """Criterion matrices of mu |psi><psi| + (1-mu) I/D over a local set for
    psis that come in blocks, so that a sweep holds one block of amplitudes
    at a time.  The set's factors and diagonal scalings (_gram_factors) are
    formed once and serve every block; add() reduces a block to each psi's
    p and G_c (_centered_gram), whose moments (_moments) are those of the
    set's pt_set, and matrices() applies the transpose rule and hermitize
    to them.  Each psi is reduced alone, so the blocks do not change a bit
    of the result."""

    def __init__(self, obs_set: ObservableSet):
        if not obs_set.is_local:
            raise ValueError("the grid route needs observables tagged 'A' or 'B'")
        self.obs_set = obs_set
        self._factors = _gram_factors(obs_set)
        self._blocks = []

    def add(self, psis):
        """Reduce a block of psis, a PureStateStack or a list of same-shape
        PureStates, to their p and G_c."""
        self._blocks.append(_centered_gram(psis, self.obs_set, self._factors))

    def _moments(self, mus):
        """_mu_moments of every psi added so far, in the order added."""
        if not self._blocks:
            raise ValueError("a grid needs at least one state")
        p, g_c = (np.concatenate(parts) for parts in zip(*self._blocks))
        return _mu_moments(p, g_c, mus, self.obs_set)

    def matrices(self, mus) -> np.ndarray:
        """The matrices of every mu of mus and psi added so far, in the order
        added, shape (n_mu, n_psi, N, N)."""
        rows = self._moments(mus)
        n_psi, n = sum(len(p) for p, _ in self._blocks), len(self.obs_set)
        out = np.empty((len(mus), n_psi, n, n), dtype=complex)
        for out_mu, (_, k) in zip(out, rows):
            out_mu[...] = hermitize(_transpose_b_pairs(k, self.obs_set.on_b))
        return out


class CriterionEvaluator:
    """criterion_matrix over one observable set, which is all it holds.  The
    sweeps call criterion_matrix and CriterionGrid directly.  The benchmark
    builds one in its set-up (bench/workloads.py) and in its grounding
    timings (bench/grounding.py), and its tracer wraps both methods; the
    acceptance and criterion tests build one too.  It stays until the
    benchmark builds what the CLI builds."""

    def __init__(self, obs_set: ObservableSet):
        self.obs_set = obs_set

    def matrix(self, rho) -> np.ndarray:
        return criterion_matrix(rho, self.obs_set)


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Ascending spectrum of one Hermitian criterion matrix, shape (N,), or of
    a stack of them, shape (k, N), and the verdict tolerance.  The minimum,
    the determinant (the spectrum's product) and the verdict are read from
    them, so a report cannot disagree with itself: a float and a str for one
    matrix, arrays of k for a stack."""

    eigenvalues: np.ndarray
    tolerance: float

    @property
    def min_eigenvalue(self):
        return _scalar_or_stack(self.eigenvalues[..., 0])

    @property
    def determinant(self):
        return _scalar_or_stack(np.prod(self.eigenvalues, axis=-1))

    @property
    def verdict(self):
        entangled = self.eigenvalues[..., 0] < -self.tolerance
        return _scalar_or_stack(np.where(entangled, ENTANGLED, UNDETECTED))


def _scalar_or_stack(x):
    """A one-matrix value as a Python float or str; a stack's as its array."""
    return x.item() if np.ndim(x) == 0 else x


def detect(matrix, tol: float = DEFAULT_VERDICT_TOL) -> CriterionReport:
    """Eigenvalue test: any eigenvalue below -tol certifies entanglement.

    A matrix gives the CriterionReport of its spectrum; a stack (k, N, N)
    gives one report of all k spectra from one eigvalsh call, row i being
    matrix i's.  A tolerance that is not finite and positive, an empty
    0 x 0 matrix, or a member that is not finite or is further from
    Hermitian than linalg.DEFAULT_HERMITICITY_TOL relative to its own norm,
    raises.  An empty stack (0, N, N) gives an empty report.
    """
    tol = require_tolerance(tol)
    eigenvalues = hermitian_eigenvalues(matrix, stacked=np.ndim(matrix) == 3)
    if eigenvalues.shape[-1] == 0:
        raise ValueError("detect needs matrices of dimension at least 1, got 0 x 0")
    return CriterionReport(eigenvalues, tol)


@dataclass(frozen=True, eq=False)
class CorrelationData:
    """Measured means, covariance and commutation matrices with the operator
    metadata (partition tag and transpose parity) needed to reconstruct the
    criterion matrix without access to the state."""

    labels: tuple[str, ...]
    partition: tuple[str, ...]
    pt_parity: tuple[int, ...]
    means: np.ndarray
    v: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "partition", tuple(str(x) for x in self.partition))
        # a numpy scalar becomes its Python scalar, so to_dict writes JSON:
        # an int64 parity exports as an int, a numpy bool as a bool
        object.__setattr__(self, "pt_parity", tuple(
            s.item() if isinstance(s, np.generic) else s for s in self.pt_parity))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))

    @property
    def n(self) -> int:
        return len(self.labels)

    def validate(self) -> "CorrelationData":
        n = self.n
        if n == 0:
            raise DataValidationError("no operators in correlation data")
        for name, value in (("partition", self.partition), ("pt_parity", self.pt_parity)):
            if len(value) != n:
                raise DataValidationError(f"{name} has length {len(value)}, expected {n}")
        if self.means.shape != (n,):
            raise DataValidationError(f"means has shape {self.means.shape}, expected ({n},)")
        if not np.isfinite(self.means).all():
            raise DataValidationError("means contains NaN or Inf entries")
        duplicates = sorted({x for x in self.labels if self.labels.count(x) > 1})
        if duplicates:
            raise DataValidationError(f"duplicate labels {', '.join(map(repr, duplicates))}")
        for tag in self.partition:
            if tag not in (SUPPORT_A, SUPPORT_B):
                raise DataValidationError(f"partition tag {tag!r} must be 'A' or 'B'")
        for s in self.pt_parity:
            if not is_unit_parity(s):
                raise DataValidationError(f"pt_parity entry {s!r} must be +1 or -1")
        for name, mat in (("V", self.v), ("Omega", self.omega)):
            if mat.shape != (n, n):
                raise DataValidationError(f"{name} has shape {mat.shape}, expected ({n}, {n})")
            if not np.isfinite(mat).all():
                raise DataValidationError(f"{name} contains NaN or Inf entries")
        # no floor: a record at 1e-12 meets the rule of one at 1; exact at 0
        bound = DATA_TOL * max(np.abs(self.v).max(), np.abs(self.omega).max())
        if np.abs(self.v - self.v.T).max() > bound:
            raise DataValidationError("covariance matrix V is not symmetric")
        if np.abs(self.omega + self.omega.T).max() > bound:
            raise DataValidationError("commutation matrix Omega is not antisymmetric")
        for j, k in np.argwhere(np.abs(self.omega) > bound):
            if self.partition[j] != self.partition[k]:
                raise DataValidationError(
                    f"Omega[{j},{k}] is nonzero across the A/B partition; "
                    "operators on different subsystems must commute"
                )
        lowest = float(np.linalg.eigvalsh(hermitize(self.v + 0.5j * self.omega))[0])
        if lowest < -bound:
            raise DataValidationError(
                f"uncertainty relation violated: V + (i/2) Omega has minimum eigenvalue "
                f"{lowest:.6g}; no quantum state gives this record"
            )
        return self

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "partition": list(self.partition),
            "pt_parity": list(self.pt_parity),
            "means": self.means.tolist(),
            "V": self.v.tolist(),
            "Omega": self.omega.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorrelationData":
        if not isinstance(payload, dict):
            raise DataValidationError(
                f"correlation data must be a JSON object, got {type(payload).__name__}")
        try:
            # tuple() would split a string into characters and a dict into keys
            for field in ("labels", "partition", "pt_parity"):
                value = payload[field]
                if isinstance(value, (str, bytes, dict)) or not np.iterable(value):
                    raise TypeError(f"{field} must be a sequence, got {type(value).__name__}")
            return cls(
                labels=tuple(payload["labels"]),
                partition=tuple(payload["partition"]),
                pt_parity=tuple(payload["pt_parity"]),
                means=payload["means"],
                v=payload["V"],
                omega=payload["Omega"],
            )
        except KeyError as exc:
            raise DataValidationError(f"correlation data is missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise DataValidationError(f"malformed correlation data: {exc}") from None


def correlation_data_from_state(rho, obs_set: ObservableSet) -> CorrelationData:
    """Simulate the measurement record an experiment would supply, with each
    member's derived pt_parity; a member with none is rejected by name."""
    if not isinstance(obs_set, ObservableSet):
        raise TypeError("correlation data needs an ObservableSet")
    for o in obs_set:
        if o.support not in (SUPPORT_A, SUPPORT_B) or o.pt_parity is None:
            raise DataValidationError(
                f"observable {o.label!r} is not locally supported with a definite "
                "transpose parity; it cannot enter the data-driven path"
            )
    means, v, omega = _moments(rho, obs_set)
    return CorrelationData(
        labels=obs_set.labels,
        partition=tuple(o.support for o in obs_set),
        pt_parity=tuple(o.pt_parity for o in obs_set),
        means=means,
        v=v,
        omega=omega,
    )


def criterion_matrix_from_data(data: CorrelationData) -> np.ndarray:
    """Reconstruct the criterion matrix from measured correlators alone.

    For locally supported operators with transpose parity s_j, PT_B maps a
    B-side operator to s_j times itself and leaves an A-side one alone (its
    parity tag is not read), so the sign map gives the record's moments of
    the PT_B members, K = s s^T (V + (i/2) Omega) with Omega zeroed across
    the partition.  The transpose rule and hermitize then give C, as on
    the grid of the set.  Parity signs on the means cancel
    inside the covariance, so the means never enter explicitly.
    """
    data.validate()
    on_b = np.array(data.partition) == SUPPORT_B
    s = np.where(on_b, data.pt_parity, 1)
    same_side = on_b[:, None] == on_b[None, :]
    sign = np.outer(s, s)
    k = sign * data.v + 0.5j * (sign * np.where(same_side, data.omega, 0.0))
    return hermitize(_transpose_b_pairs(k, on_b))
