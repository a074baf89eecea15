"""Covariance and commutation matrices, the operator-level partial-transpose
criterion matrix, and verdict reporting.

V and Omega are the centered second moments of xi_j xi_k, the criterion
matrix those of PT_B(xi_j xi_k), and one route choice (_centered_moments)
serves both.  A local ObservableSet on pure states and Werner mixtures takes
the amplitude route, O(N dim^3) per psi with no D x D array: the local
factors act on the amplitude matrix, B factors transposed for the moments
and B-B pairs read transposed for the criterion (_transpose_b_pairs, the one
transpose rule).  The route takes a grid, a list of same-shape pure states
psi times a vector of mixing weights mu (criterion_grid): it forms p and the
centered Gram matrix G_c once per psi, stacking the psis in chunks whose
working set stays within GRID_CHUNK_BYTES, and then every mu's moments from
that psi's G_c.  One PureState or WernerState is a 1 x 1 grid.  Otherwise
one tracer (_trace_table) reads the set's cached pt_tables against the
state for the criterion, and against PT_B(rho) for the moments, as
Tr(rho X) = Tr(PT_B(rho) PT_B(X)); a raw operator list traces a per-call
table of its own products.

detect eigensolves one criterion matrix, or a stack of them in one call
with one report per member.  A CriterionReport holds the spectrum and the
tolerance only, and derives its minimum, determinant and verdict from them.

criterion_matrix_from_data rebuilds the criterion matrix from measured
correlations of local operators with definite transpose parity: the
parities sign V and Omega, and the same transpose rule orders B-B pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues, hermitize, partial_transpose
from .observables import SUPPORT_A, SUPPORT_B, Observable, ObservableSet, is_unit_parity
from .states import PureState, WernerState, amplitude_matrices, as_matrix, mixing_weights

DEFAULT_VERDICT_TOL = 1e-9
DATA_TOL = 1e-10
# bytes of factor products, their conjugate and amplitude rows that one
# chunk of the grid route holds at a time
GRID_CHUNK_BYTES = 256 * 1024

ENTANGLED = "ENTANGLED"
UNDETECTED = "UNDETECTED"


class DataValidationError(ValueError):
    """Measured correlation data violates one of its structural invariants."""


def require_tolerance(tol) -> float:
    """The verdict tolerance, which must be finite and positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return float(tol)


def _raw_table(observables, dim: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Pairs j <= k, operators and products xi_j xi_k of a list of raw
    dim x dim arrays; an operator of another shape is rejected by position."""
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
    pairs = [(j, k) for j in range(len(mats)) for k in range(j, len(mats))]
    return pairs, np.array(mats), np.array([mats[j] @ mats[k] for j, k in pairs])


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
    when transposed, by the amplitude route as a 1 x 1 grid or else by
    _trace_table.  A raw operator list has no B side to transpose."""
    if not isinstance(observables, ObservableSet):
        if transposed:
            raise TypeError("the criterion matrix needs an ObservableSet")
        r = as_matrix(rho)
        return _trace_table(_raw_table(observables, r.shape[0]), r)
    if isinstance(rho, (PureState, WernerState)) and observables.is_local:
        if isinstance(rho, PureState):
            rho = WernerState(rho, 1.0)
        means, k = next(_amplitude_moments([rho.psi], [rho.mu], observables, transposed))
        return means[0], k[0]
    r = as_matrix(rho)
    da, db = observables.dim_a, observables.dim_b
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
    xi_j xi_k, which the dense route reads from pt_tables against PT_B(rho)."""
    means, centered = _centered_moments(rho, observables, transposed=False)
    return (means, *_covariance_parts(centered))


def covariance_commutation(rho, observables) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix V and commutation matrix Omega in one pass.

    V[j,k] = <{xi_j, xi_k}>/2 - <xi_j><xi_k> and Omega[j,k] = -i <[xi_j, xi_k]>.
    """
    _, v, omega = _moments(rho, observables)
    return v, omega


def covariance_matrix(rho, observables) -> np.ndarray:
    return covariance_commutation(rho, observables)[0]


def commutation_matrix(rho, observables) -> np.ndarray:
    return covariance_commutation(rho, observables)[1]


def uncertainty_matrix(rho, observables) -> np.ndarray:
    """V + (i/2) Omega: Hermitian and positive semidefinite for any state."""
    v, omega = covariance_commutation(rho, observables)
    return hermitize(v + 0.5j * omega)


def _transpose_b_pairs(k: np.ndarray, on_b: np.ndarray) -> np.ndarray:
    """The transpose rule: PT_B(xi_j xi_k) = PT_B(xi_k) PT_B(xi_j) when both
    act on B, so entry (j,k) of such a pair takes the (k,j) value, in each
    member of a stack (..., N, N)."""
    return np.where(np.outer(on_b, on_b), np.swapaxes(k, -1, -2), k)


def _centered_gram(psis, obs_set, transpose_b: bool) -> tuple[np.ndarray, np.ndarray]:
    """p_j = Re<psi|v_j> and the Gram matrix G_c of v_j - p_j psi for each psi
    of psis, shapes (n_psi, N) and (n_psi, N, N).

    v_j = a_j Psi or Psi f_j on the amplitude matrix Psi, f = b^T with
    transpose_b and f = b without.  Each factor acts on a whole chunk of
    stacked amplitude matrices at once; a chunk holds as many psi as keep
    its v, the conjugate of v and its amplitude rows within GRID_CHUNK_BYTES.
    Every psi is computed alone within its chunk, so the chunking does not
    change a bit of the result.
    """
    da, db = obs_set.dim_a, obs_set.dim_b
    n = len(obs_set)
    factors = [o.matrix.T if on_b and transpose_b else o.matrix
               for o, on_b in zip(obs_set, obs_set.on_b)]
    chunk = max(1, GRID_CHUNK_BYTES // ((2 * n + 1) * da * db * 16))
    p = np.empty((len(psis), n))
    g_c = np.empty((len(psis), n, n), dtype=complex)
    for start in range(0, len(psis), chunk):
        mats = amplitude_matrices(psis[start:start + chunk])
        if mats.shape[1:] != (da, db):
            raise ValueError(f"state dimensions {mats.shape[1]}x{mats.shape[2]} do not match "
                             f"observables {da}x{db}")
        amps = mats.reshape(len(mats), -1)
        # each product is written into its slot of v: no list to stack
        v = np.empty((len(amps), n, da, db), dtype=complex)
        for j, (f, on_b) in enumerate(zip(factors, obs_set.on_b)):
            if on_b:
                np.matmul(mats, f, out=v[:, j])
            else:
                np.matmul(f, mats, out=v[:, j])
        v = v.reshape(len(amps), n, -1)
        rows = slice(start, start + len(amps))
        p[rows] = np.matmul(v, amps.conj()[:, :, None])[:, :, 0].real
        # the outer products p psi^T as a matmul: a broadcast product would
        # hold numpy's iteration buffers, twice the size of v, on top of it
        v -= np.matmul(p[rows, :, None].astype(complex), amps[:, None, :])
        np.matmul(v.conj(), np.swapaxes(v, -1, -2), out=g_c[rows])
    return p, g_c


def _amplitude_moments(psis, mus, obs_set, transposed: bool):
    """For each mu of mus in turn, the means m = mu p + (1-mu) tau and
    centered second moments K = E - m m^T of mu |psi><psi| + (1-mu) I/D over
    a local set, for every psi of psis, shapes (n_psi, N) and (n_psi, N, N),
    formed as K = mu G_c + (1-mu) T_c + mu (1-mu) (p - tau)(p - tau)^T
    from each psi's one p and G_c (_centered_gram), which are built before
    the first mu is yielded.

    Without transposed these are the moments of xi_j xi_k, with the B
    factors transposed; with it those of PT_B(xi_j xi_k), B-B pairs read
    transposed.  tau and T_c are the set's mixed_moments.  No means of
    order M are subtracted from second moments of order M^2, a cancellation
    that at a few hundred spins per side would lift rounding above the
    verdict tolerance.  One mu at a time, because a product broadcast over
    the whole grid would hold numpy's iteration buffers, larger than the
    grid itself.
    """
    mus = mixing_weights(mus)
    p, g_c = _centered_gram(psis, obs_set, transpose_b=not transposed)
    tau, t_c = obs_set.mixed_moments
    shift = p - tau
    outer = shift[:, :, None] * shift[:, None, :]

    def moments():
        for mu in mus:
            k = mu * g_c + (1.0 - mu) * t_c + mu * (1.0 - mu) * outer
            if transposed:
                k = _transpose_b_pairs(k, obs_set.on_b)
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


def criterion_grid(psis, mus, obs_set: ObservableSet) -> np.ndarray:
    """Criterion matrices of mu |psi><psi| + (1-mu) I/D for every mu of mus
    and psi of psis (same-shape PureStates), shape (n_mu, n_psi, N, N), by
    the amplitude route of a local set: each psi's Gram matrix is formed
    once, whatever the number of mus.  Entry [i, j] equals
    criterion_matrix(WernerState(psis[j], mus[i]), obs_set) bit for bit."""
    if not obs_set.is_local:
        raise ValueError("the grid route needs observables tagged 'A' or 'B'")
    rows = _amplitude_moments(psis, mus, obs_set, transposed=True)
    out = np.empty((len(mus), len(psis), len(obs_set), len(obs_set)), dtype=complex)
    for out_mu, (_, k) in zip(out, rows):
        out_mu[...] = hermitize(k)
    return out


class CriterionEvaluator:
    """criterion_matrix over one observable set, which is all it holds.  The
    sweeps call criterion_matrix and criterion_grid directly; only the
    benchmark's set-up (bench/workloads.py) still builds one."""

    def __init__(self, obs_set: ObservableSet):
        self.obs_set = obs_set

    def matrix(self, rho) -> np.ndarray:
        return criterion_matrix(rho, self.obs_set)


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Ascending spectrum of one Hermitian criterion matrix and the verdict
    tolerance; the minimum, the determinant (the spectrum's product) and the
    verdict are read from them, so a report cannot disagree with itself."""

    eigenvalues: np.ndarray
    tolerance: float

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def determinant(self) -> float:
        return float(np.prod(self.eigenvalues))

    @property
    def verdict(self) -> str:
        return ENTANGLED if self.min_eigenvalue < -self.tolerance else UNDETECTED


def detect(matrix, tol: float = DEFAULT_VERDICT_TOL) -> CriterionReport | list[CriterionReport]:
    """Eigenvalue test: any eigenvalue below -tol certifies entanglement.

    A matrix gives one CriterionReport; a stack (k, N, N) gives a list of k,
    one per member, from one eigvalsh call.  A tolerance that is not finite
    and positive, or a member that is not finite or is further from
    Hermitian than linalg.DEFAULT_HERMITICITY_TOL relative to its own norm,
    raises.
    """
    tol = require_tolerance(tol)
    stacked = np.ndim(matrix) == 3
    spectra = hermitian_eigenvalues(matrix, stacked=stacked)
    reports = [CriterionReport(eigs, tol) for eigs in (spectra if stacked else [spectra])]
    return reports if stacked else reports[0]


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
        object.__setattr__(self, "pt_parity", tuple(self.pt_parity))
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
        scale_v = max(1.0, float(np.abs(self.v).max()))
        if np.abs(self.v - self.v.T).max() > DATA_TOL * scale_v:
            raise DataValidationError("covariance matrix V is not symmetric")
        scale_o = max(1.0, float(np.abs(self.omega).max()))
        if np.abs(self.omega + self.omega.T).max() > DATA_TOL * scale_o:
            raise DataValidationError("commutation matrix Omega is not antisymmetric")
        for j, k in np.argwhere(np.abs(self.omega) > DATA_TOL * scale_o):
            if self.partition[j] != self.partition[k]:
                raise DataValidationError(
                    f"Omega[{j},{k}] is nonzero across the A/B partition; "
                    "operators on different subsystems must commute"
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
        try:
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
    """Simulate the measurement record an experiment would supply."""
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
    parity tag is not read), so the sign map gives
    K = s s^T (V + (i/2) Omega) with Omega zeroed across the partition.
    The transpose rule then reads each B-B pair transposed, as
    PT_B(xi_j xi_k) = s_j s_k xi_k xi_j.  Parity signs on the means cancel
    inside the covariance, so the means never enter explicitly.
    """
    data.validate()
    on_b = np.array(data.partition) == SUPPORT_B
    s = np.where(on_b, data.pt_parity, 1)
    same_side = on_b[:, None] == on_b[None, :]
    sign = np.outer(s, s)
    k = sign * data.v + 0.5j * (sign * np.where(same_side, data.omega, 0.0))
    return hermitize(_transpose_b_pairs(k, on_b))
