"""Dense complex-matrix primitives shared by every other module.

All operations are pure functions of square numpy arrays.  Quantities that
are Hermitian analytically are symmetrized before eigensolving so that
floating-point rounding never produces a spurious complex spectrum.
"""

from __future__ import annotations

import numpy as np

DEFAULT_HERMITICITY_TOL = 1e-9


class HermiticityError(ValueError):
    """A matrix expected to be Hermitian is not, beyond the tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: relative defect {defect:.3e} exceeds {tol:.3e}"
        )


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2."""
    return (m + m.conj().T) / 2


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius distance from m to its Hermitian part, relative to ||m||."""
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.conj().T) / norm)


def require_hermitian(m, tol: float = DEFAULT_HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity within tol and return the symmetrized matrix."""
    m = _as_square(m)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise HermiticityError(defect, tol)
    return hermitize(m)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor indexes row-major blocks."""
    return np.kron(_as_square(a), _as_square(b))


def partial_transpose(m, dim_a: int, dim_b: int, subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one tensor factor only.

    For subsystem "B" the entry ((a,b),(a',b')) moves to ((a,b'),(a',b)).
    The map is an involution and preserves the Frobenius norm.
    """
    m = _as_square(m)
    if m.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"matrix dimension {m.shape[0]} does not match dim_a*dim_b = {dim_a * dim_b}"
        )
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(dim_a * dim_b, dim_a * dim_b)


def hermitian_eigenvalues(m, tol: float = DEFAULT_HERMITICITY_TOL) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix."""
    return np.linalg.eigvalsh(require_hermitian(m, tol))


def clip_psd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue clip v max(w, 0) v† of a Hermitian matrix, unchecked."""
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def psd_project(m, tol: float = DEFAULT_HERMITICITY_TOL) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm (eigenvalue clip)."""
    return hermitize(clip_psd(require_hermitian(m, tol)))


def hermitian_determinant(m, tol: float = DEFAULT_HERMITICITY_TOL) -> float:
    """Determinant of a Hermitian matrix as the product of its real eigenvalues."""
    return float(np.prod(hermitian_eigenvalues(m, tol)))
