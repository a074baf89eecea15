"""Covariance and commutation matrices, the operator-level partial-transpose
criterion matrix, and verdict reporting.

V and Omega are the centered second moments of xi_j xi_k, the criterion
matrix those of PT_B(xi_j xi_k), and one route choice (_centered_moments)
serves both.  A local ObservableSet on a PureState or WernerState takes the
amplitude route, O(N dim^3) with no D x D array: the local factors act on
the amplitude matrix, B factors transposed for the moments and B-B pairs
read transposed for the criterion (_transpose_b_pairs, the one transpose
rule).  Otherwise one tracer (_trace_table) reads the set's cached
pt_tables against the state for the criterion, and against PT_B(rho) for
the moments, as Tr(rho X) = Tr(PT_B(rho) PT_B(X)); a raw operator list
traces a per-call table of its own products.

criterion_matrix_from_data rebuilds the criterion matrix from measured
correlations of local operators with definite transpose parity: the
parities sign V and Omega, and the same transpose rule orders B-B pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues, hermitize, partial_transpose
from .observables import SUPPORT_A, SUPPORT_B, Observable, ObservableSet, is_unit_parity
from .states import PureState, WernerState, as_matrix

DEFAULT_VERDICT_TOL = 1e-9
DATA_TOL = 1e-10

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
    when transposed, by the amplitude route or else by _trace_table.  A raw
    operator list has no B side to transpose."""
    if not isinstance(observables, ObservableSet):
        if transposed:
            raise TypeError("the criterion matrix needs an ObservableSet")
        r = as_matrix(rho)
        return _trace_table(_raw_table(observables, r.shape[0]), r)
    if isinstance(rho, (PureState, WernerState)) and observables.is_local:
        means, k = _amplitude_moments(rho, observables, transpose_b=not transposed)
        return means, _transpose_b_pairs(k, observables.on_b) if transposed else k
    r = as_matrix(rho)
    da, db = observables.dim_a, observables.dim_b
    if r.shape[0] != da * db:
        raise ValueError(f"state dimension {r.shape[0]} does not match observables {da * db}")
    if not transposed:
        r = partial_transpose(r, da, db, "B")
    return _trace_table(observables.pt_tables, r)


def _moments(rho, observables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, covariance V and commutation Omega from the centered moments of
    xi_j xi_k, which the dense route reads from pt_tables against PT_B(rho).
    V is their real part symmetrized, Omega = 2 Im of them antisymmetrized."""
    means, centered = _centered_moments(rho, observables, transposed=False)
    v, omega = centered.real, 2.0 * centered.imag
    return means, (v + v.T) / 2, (omega - omega.T) / 2


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
    act on B, so entry (j,k) of such a pair takes the (k,j) value."""
    return np.where(np.outer(on_b, on_b), k.T, k)


def _amplitude_moments(state, obs_set, transpose_b: bool) -> tuple[np.ndarray, np.ndarray]:
    """Means m = mu p + (1-mu) tau and centered second moments K = E - m m^T
    of mu |psi><psi| + (1-mu) I/D over a local set, formed as
    K = mu G_c + (1-mu) T_c + mu (1-mu) (p - tau)(p - tau)^T.

    G_c is the Gram matrix of v_j - p_j psi, v_j = a_j Psi or Psi f_j on the
    amplitude matrix Psi, p_j = Re<psi|v_j>; f = b^T with transpose_b (the
    raw moments), f = b for the criterion matrix.  tau and T_c are the
    set's mixed_moments.  No means of order M are subtracted from second
    moments of order M^2, a cancellation that at a few hundred spins per
    side would lift rounding above the verdict tolerance.
    """
    if isinstance(state, PureState):
        state = WernerState(state, 1.0)
    psi = state.psi
    if (psi.dim_a, psi.dim_b) != (obs_set.dim_a, obs_set.dim_b):
        raise ValueError(f"state dimensions {psi.dim_a}x{psi.dim_b} do not match observables "
                         f"{obs_set.dim_a}x{obs_set.dim_b}")
    amp = psi.amplitudes.reshape(psi.dim_a, psi.dim_b)
    # each product is written into its slot of v: no list to stack
    v = np.empty((len(obs_set), psi.dim_a, psi.dim_b), dtype=complex)
    for o, on_b, out in zip(obs_set, obs_set.on_b, v):
        if on_b:
            np.matmul(amp, o.matrix.T if transpose_b else o.matrix, out=out)
        else:
            np.matmul(o.matrix, amp, out=out)
    v = v.reshape(len(obs_set), -1)
    p = (v @ psi.amplitudes.conj()).real
    v -= p[:, None] * psi.amplitudes
    mu = state.mu
    tau, t_c = obs_set.mixed_moments
    shift = p - tau
    means = mu * p + (1.0 - mu) * tau
    k = (mu * (v.conj() @ v.T) + (1.0 - mu) * t_c
         + mu * (1.0 - mu) * np.outer(shift, shift))
    return means, k


def criterion_matrix(rho, obs_set: ObservableSet) -> np.ndarray:
    """C[j,k] = Tr[rho PT_B(xi_j xi_k)] - Tr[rho PT_B(xi_j)] Tr[rho PT_B(xi_k)],
    the transposed centered moments of _centered_moments.

    With a single observable this degenerates to the 1x1 variance of the
    transposed operator, which is never negative: one observable cannot
    detect anything.
    """
    return hermitize(_centered_moments(rho, obs_set, transposed=True)[1])


class CriterionEvaluator:
    """criterion_matrix over one observable set; it holds only the set, as
    the tables are cached on the ObservableSet."""

    def __init__(self, obs_set: ObservableSet):
        self.obs_set = obs_set

    def matrix(self, rho) -> np.ndarray:
        return criterion_matrix(rho, self.obs_set)


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Spectrum summary and verdict for one Hermitian criterion matrix."""

    eigenvalues: np.ndarray
    min_eigenvalue: float
    determinant: float
    verdict: str
    tolerance: float

    def __post_init__(self):
        expected = ENTANGLED if self.min_eigenvalue < -self.tolerance else UNDETECTED
        if self.verdict != expected:
            raise ValueError(
                f"verdict {self.verdict!r} inconsistent with min eigenvalue "
                f"{self.min_eigenvalue} at tolerance {self.tolerance}"
            )


def detect(matrix, tol: float = DEFAULT_VERDICT_TOL) -> CriterionReport:
    """Eigenvalue test: any eigenvalue below -tol certifies entanglement; a
    tolerance that is not finite and positive, or a matrix further from
    Hermitian than linalg.DEFAULT_HERMITICITY_TOL, raises."""
    tol = require_tolerance(tol)
    eigs = hermitian_eigenvalues(matrix)
    mn = float(eigs[0])
    det = float(np.prod(eigs))
    verdict = ENTANGLED if mn < -tol else UNDETECTED
    return CriterionReport(eigs, mn, det, verdict, tol)


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
