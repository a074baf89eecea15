"""Reference criteria for cross-validation: the lowest eigenvalue of the
partially transposed state, the quadrature instance of the covariance
criterion, and a simulated-annealing search over decomposable entanglement
witnesses.

The partial-transpose minimum of a PureState or a WernerState has a closed
form in the two largest Schmidt coefficients, and PptGrid is its one
engine: the `ppt` column of a spin-ensemble sweep forms no D x D array and
takes the Schmidt coefficients of each block of its t grid from one stacked
SVD, and a state that states.as_werner reads as one psi and one mu is one
add and one mu of a grid.  A DensityMatrix takes the dense spectrum, and
a raw array, which carries no bipartition, is rejected.  The witness
reads its state through states.dense_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import (DEFAULT_VERDICT_TOL, ENTANGLED, UNDETECTED, CriterionReport,
                        criterion_matrix, detect)
from .linalg import (INPUT_HERMITICITY_TOL, clip_psd, hermitian_eigenvalues, hermiticity_defect,
                     hermitize, kron, partial_transpose, require_square, transpose_factor)
from .observables import ObservableSet, collective_spin_matrices, hp_quadrature_set
from .states import DensityMatrix, as_state_stack, as_werner, dense_matrix, mixing_weights


def ppt_min_eigenvalue(rho) -> float:
    """Minimum eigenvalue of the partially transposed state.

    A negative value certifies entanglement.  A PureState or a WernerState
    is one psi and one mu of a PptGrid.  A DensityMatrix is partially
    transposed over its own bipartition and eigensolved densely.
    """
    if w := as_werner(rho):
        grid = PptGrid()
        grid.add([w.psi])
        return float(grid.min_eigenvalues([w.mu])[0, 0])
    if not isinstance(rho, DensityMatrix):
        raise TypeError("ppt_min_eigenvalue needs a PureState, WernerState or DensityMatrix, "
                        f"got {type(rho).__name__}")
    sigma = partial_transpose(rho.matrix, rho.dim_a, rho.dim_b, "B")
    return float(hermitian_eigenvalues(sigma)[0])


class PptGrid:
    """Partial-transpose minima of mu |psi><psi| + (1-mu) I/D for psis that
    come in blocks, so that a sweep holds one block of amplitudes at a time.

    The minimum is -mu s1 s2 + (1-mu)/D, where s1 >= s2 are the two largest
    singular values of the dim_a x dim_b amplitude matrix (s2 = 0 when one
    side has dimension 1): PT(|psi><psi|) has the spectrum {s_i^2} U
    {+-s_i s_j, i<j}, padded with zeros up to D, and PT(I) = I.  add() reads
    the singular values of a block's psis from one stacked SVD and keeps
    only -s1 s2; min_eigenvalues() applies the mu map once, to the gathered
    values.
    """

    def __init__(self):
        self._pure_min = []
        self._shape = None

    def add(self, psis):
        """Reduce a block of psis, a PureStateStack or a list of same-shape
        PureStates, to the minimum of each pure state's partial transpose."""
        mats = as_state_stack(psis).matrices()
        if self._shape not in (None, mats.shape[1:]):
            raise ValueError(f"grid states must share one shape, got {self._shape} "
                             f"and {mats.shape[1:]}")
        self._shape = mats.shape[1:]
        s = np.linalg.svd(mats, compute_uv=False)
        if s.shape[1] > 1:
            pure_min = -s[:, 0] * s[:, 1]
        else:
            # a zero eigenvalue exists unless the state is the whole 1 x 1 space
            pure_min = np.zeros(len(s)) if self._shape != (1, 1) else s[:, 0] ** 2
        self._pure_min.append(pure_min)

    def min_eigenvalues(self, mus) -> np.ndarray:
        """The minima of every mu of mus and psi added so far, in the order
        added, shape (n_mu, n_psi)."""
        mu = mixing_weights(mus)[:, None]
        if not self._pure_min:
            raise ValueError("a grid needs at least one state")
        dim = self._shape[0] * self._shape[1]
        return mu * np.concatenate(self._pure_min) + (1.0 - mu) / dim


def duan_simon_report(
    rho,
    m: int,
    tol: float = DEFAULT_VERDICT_TOL,
    spin_set: ObservableSet | None = None,
) -> CriterionReport:
    """Quadrature-pair criterion on the collective spins of two ensembles.

    Builds the four quadratures (x_A, p_A, x_B, p_B) from the spin sextet
    (the given one, if any) and runs the eigenvalue test on their criterion
    matrix.  For quadrature operators this is the continuous-variable
    covariance-matrix separability test.
    """
    quads = hp_quadrature_set(m, spin_set=spin_set)
    return detect(criterion_matrix(rho, quads), tol)


WITNESS_VERDICT_TOL = 1e-6  # an expectation below -WITNESS_VERDICT_TOL is ENTANGLED
PROPOSAL_SCALE = 0.5  # annealer kick width per unit of coefficient box and temperature
SPLIT_TOL = 1e-8  # largest negative-part norm, and last move, a decomposable split accepts
SPLIT_MAX_ITER = 500  # projection rounds before decomposable_split reports infeasible


@dataclass(frozen=True)
class AnnealParams:
    """Temperature schedule and coefficient box of the witness annealer;
    defaults favor small ensembles and are the CLI defaults.  The
    decomposability certificate is held to SPLIT_TOL within SPLIT_MAX_ITER
    projection rounds."""

    t0: float = 1.0
    decay: float = 0.98
    sweeps: int = 300
    box_scale: float = 10.0

    def __post_init__(self):
        for name, value, top in (("t0", self.t0, np.inf), ("decay", self.decay, 1.0),
                                 ("box_scale", self.box_scale, np.inf)):
            if not 0.0 < value < top:  # NaN fails this test
                raise ValueError(f"{name} must lie in (0, {top}), got {value}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be positive, got {self.sweeps}")


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Best feasible witness found: its expectation, coefficients, the
    feasibility residual of the decomposition certificate, and the seed."""

    min_expectation: float
    coefficients: np.ndarray
    feasibility_residual: float
    seed: int
    iterations: int

    @property
    def verdict(self) -> str:
        return ENTANGLED if self.min_expectation < -WITNESS_VERDICT_TOL else UNDETECTED


def _negative_part_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(x), 0.0)))


def decomposable_split(
    w,
    dim_a: int,
    dim_b: int,
    start: np.ndarray | None = None,
) -> tuple[bool, float, np.ndarray]:
    """Try to split w = P + Q^(T_A) with P, Q both positive semidefinite.

    A split with one summand zero is recognized directly; otherwise the
    search alternates projections between the PSD cone and its image under
    the affine map P -> w - P followed by partial transposition.  The
    transpose is a Frobenius isometry, so both projections are exact
    eigenvalue clips.  Returns (feasible, residual, P) where the residual is
    the largest remaining negative-part norm of P and (w - P)^(T_A).
    Non-convergence within SPLIT_MAX_ITER rounds, or a residual above
    SPLIT_TOL, reports infeasible.  A w or a start that is not one finite
    square matrix of dimension dim_a * dim_b, or a w whose hermiticity_defect
    exceeds INPUT_HERMITICITY_TOL, is rejected by name before any eigensolve.
    """
    if dim_a != dim_b:
        raise ValueError("decomposable_split expects equal subsystem dimensions")
    d = dim_a
    w = require_square(w)
    if w.shape[0] != d * d:
        raise ValueError(f"matrix dimension {w.shape[0]} != dim_a*dim_b = {d * d}")
    if start is not None:
        try:
            start = require_square(start)
        except ValueError as exc:
            raise ValueError(f"start: {exc}") from None
        if start.shape != w.shape:
            raise ValueError(f"start has shape {start.shape}, expected {w.shape}")
    defect = hermiticity_defect(w)
    if defect > INPUT_HERMITICITY_TOL:
        raise ValueError(f"w is not Hermitian: relative defect {defect:.3e} exceeds "
                         f"{INPUT_HERMITICITY_TOL:.3e}")
    w = hermitize(w)
    neg_w = _negative_part_norm(w)
    if neg_w <= SPLIT_TOL:
        return True, neg_w, w
    neg_wta = _negative_part_norm(transpose_factor(w, d, d, "A"))
    if neg_wta <= SPLIT_TOL:
        return True, neg_wta, np.zeros_like(w)
    p = hermitize(start) if start is not None else w.copy()
    converged = False
    for _ in range(SPLIT_MAX_ITER):
        evals, evecs = np.linalg.eigh(p)
        neg_p = float(np.linalg.norm(np.minimum(evals, 0.0)))
        if neg_p <= SPLIT_TOL:
            # p already PSD; if the complementary part also clears the cone,
            # p certifies the split and a warm start can accept immediately
            neg_q = _negative_part_norm(transpose_factor(w - p, d, d, "A"))
            if neg_q <= SPLIT_TOL:
                return True, max(neg_p, neg_q), p
        clipped = (evecs * np.maximum(evals, 0.0)) @ evecs.conj().T
        y = transpose_factor(w - clipped, d, d, "A")
        p_next = w - transpose_factor(clip_psd(y), d, d, "A")
        move = float(np.linalg.norm(p_next - p))
        p = hermitize(p_next)
        if move <= SPLIT_TOL:
            converged = True
            break
    residual = max(
        _negative_part_norm(p),
        _negative_part_norm(transpose_factor(w - p, d, d, "A")),
    )
    return converged and residual <= SPLIT_TOL, residual, p


def witness_basis(m: int) -> list[np.ndarray]:
    """Per-side operator basis (identity, S^x, S^y, S^z)."""
    sx, sy, sz = collective_spin_matrices(m)
    return [np.eye(m + 1, dtype=complex), sx, sy, sz]


_SCREEN_STATES = 64
_SCREEN_SLACK = -1e-10


def _product_screen(basis, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-side basis expectations on random pure states.

    A decomposable witness has nonnegative expectation on every product
    state, so sa[k] @ c @ sb[k] < 0 proves a candidate infeasible without
    running the projection loop.  The screen never rejects a feasible
    candidate; it only short-circuits the verdict the projections would
    reach anyway.
    """
    dim = basis[0].shape[0]
    sa = np.empty((_SCREEN_STATES, 4))
    sb = np.empty((_SCREEN_STATES, 4))
    for k in range(_SCREEN_STATES):
        for target in (sa, sb):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            target[k] = [np.vdot(v, b @ v).real for b in basis]
    return sa, sb


def witness_optimize(
    rho,
    m: int,
    params: AnnealParams | None = None,
    seed: int = 0,
) -> WitnessResult:
    """Simulated-annealing search for a decomposable witness on rho.

    W = sum_ij c_ij a_i (x) b_j over the identity-plus-spin bases with c_00
    pinned to 1/Tr(identity) so Tr(W) = 1.  One random coefficient receives
    a Gaussian kick per step; the proposal passes a Metropolis test on <W>
    and is then certified decomposable by alternating projections, with
    infeasible candidates rejected outright.  Every committed candidate is
    a valid witness, so a negative optimum certifies entanglement.  A state
    whose bipartition is not (m+1) x (m+1) is rejected by name.
    """
    params = params or AnnealParams()
    basis = witness_basis(m)  # an m below 1 is named by the ensemble-size rule
    d_side = m + 1
    r = dense_matrix(rho, d_side, d_side, "witness basis")
    dim = d_side * d_side
    ops = [[kron(a, b) for b in basis] for a in basis]
    expect = np.array(
        [[np.einsum("ab,ba->", r, ops[i][j]).real for j in range(4)] for i in range(4)]
    )
    box = params.box_scale / dim
    rng = np.random.default_rng(seed)
    # screen states are fixed independently of the user seed
    sa, sb = _product_screen(basis, np.random.default_rng(0x5eed))

    c = np.zeros((4, 4))
    c[0, 0] = 1.0 / dim
    w = ops[0][0] / dim
    _, residual0, p_warm = decomposable_split(w, d_side, d_side)
    best_c = c.copy()
    best_obj = float(np.sum(c * expect))
    best_residual = residual0
    obj = best_obj

    free = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    temp = params.t0
    iterations = 0
    for _ in range(params.sweeps):
        for _ in range(len(free)):
            iterations += 1
            i, j = free[rng.integers(len(free))]
            new = c[i, j] + rng.normal(0.0, PROPOSAL_SCALE * box * temp)
            if abs(new) > box:
                continue
            delta = (new - c[i, j]) * expect[i, j]
            if delta > 0.0 and rng.random() >= np.exp(-delta / temp):
                continue
            c_new = c.copy()
            c_new[i, j] = new
            if np.min(np.einsum("ki,ij,kj->k", sa, c_new, sb)) < _SCREEN_SLACK:
                continue
            w_new = w + (new - c[i, j]) * ops[i][j]
            feasible, residual, p_new = decomposable_split(
                w_new, d_side, d_side, start=p_warm
            )
            if not feasible:
                continue
            c = c_new
            w = w_new
            obj += delta
            p_warm = p_new
            if obj < best_obj:
                best_obj = obj
                best_c = c.copy()
                best_residual = residual
        temp *= params.decay

    return WitnessResult(
        min_expectation=float(np.sum(best_c * expect)),
        coefficients=best_c,
        feasibility_residual=float(best_residual),
        seed=int(seed),
        iterations=iterations,
    )


def witness_operator(coefficients, m: int) -> np.ndarray:
    """Assemble the witness matrix from its coefficient table."""
    basis = witness_basis(m)
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (4, 4):
        raise ValueError(f"coefficients must be 4x4, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("coefficients contain NaN or Inf entries")
    out = np.zeros(((m + 1) ** 2, (m + 1) ** 2), dtype=complex)
    for i in range(4):
        for j in range(4):
            if c[i, j] != 0.0:
                out += c[i, j] * kron(basis[i], basis[j])
    return out
