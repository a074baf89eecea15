"""Dense complex-matrix primitives shared by every other module.

All operations are pure functions of square numpy arrays.  Quantities that
are Hermitian analytically are symmetrized before eigensolving so that
floating-point rounding never produces a spurious complex spectrum, and
every Hermiticity check holds the relative defect to DEFAULT_HERMITICITY_TOL.
The Hermitian checks and the eigensolve also take a stack (k, n, n),
checked member by member and solved in one LAPACK call.
"""

from __future__ import annotations

import numpy as np

DEFAULT_HERMITICITY_TOL = 1e-9


class HermiticityError(ValueError):
    """A matrix expected to be Hermitian is not, beyond DEFAULT_HERMITICITY_TOL."""

    def __init__(self, defect: float, member: int | None = None):
        self.defect = defect
        where = "" if member is None else f" (stack member {member})"
        super().__init__(f"matrix is not Hermitian{where}: relative defect {defect:.3e} "
                         f"exceeds {DEFAULT_HERMITICITY_TOL:.3e}")


def _as_square(m, stacked: bool = False) -> np.ndarray:
    """A finite complex square matrix, or with stacked a stack (k, n, n) of
    them whose first non-finite member is named by its index."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ValueError(f"expected a {kind}, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        where = f" (stack member {int(np.argmin(finite))})" if stacked else ""
        raise ValueError(f"matrix contains NaN or Inf entries{where}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, of each member of a stack (..., n, n)."""
    return (m + _adjoint(m)) / 2


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Frobenius distance from m to its Hermitian part, relative to ||m||
    (0 for m = 0); an array of them for a stack (..., n, n)."""
    norm = np.linalg.norm(m, axis=(-2, -1))
    return np.linalg.norm(m - _adjoint(m), axis=(-2, -1)) / np.where(norm == 0, 1, norm)


def require_hermitian(m, stacked: bool = False) -> np.ndarray:
    """m symmetrized, checked Hermitian within DEFAULT_HERMITICITY_TOL; with
    stacked, each member of a (k, n, n) stack is checked on its own scale."""
    m = _as_square(m, stacked)
    defects = np.atleast_1d(hermiticity_defect(m))
    if defects.size and defects.max() > DEFAULT_HERMITICITY_TOL:
        worst = int(np.argmax(defects))
        raise HermiticityError(float(defects[worst]), worst if stacked else None)
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


def hermitian_eigenvalues(m, stacked: bool = False) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix, or with stacked the
    (k, n) spectra of a (k, n, n) stack from one eigvalsh call."""
    return np.linalg.eigvalsh(require_hermitian(m, stacked))


def clip_psd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue clip v max(w, 0) v† of a Hermitian matrix, unchecked."""
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def psd_project(m) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm (eigenvalue clip)."""
    return hermitize(clip_psd(require_hermitian(m)))
