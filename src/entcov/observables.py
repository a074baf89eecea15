"""Observable sets: Pauli products, collective spins in the Dicke basis,
Holstein-Primakoff quadratures, and SO(3)-rotated variants.

An observable's transpose parity, pt_parity, is computed from the member
itself, never declared: PT_B leaves an A member a (x) I_B alone (+1), and
maps a B member I_A (x) b to I_A (x) b^T, which is s times itself for
s = +1 or -1 when b^T = s b within PT_PARITY_TOL of b's own norm.  The
Dicke-basis matrix elements are real for S^x and S^z and purely imaginary
for S^y, so on B those read +1 and -1; a rotation that mixes them has no
definite parity.  ObservableSet checks Hermiticity relative to each
member's own norm.

An observable tagged "A" or "B" stores its local factor a or b, a
dim_a x dim_a or dim_b x dim_b matrix; one tagged "JOINT" stores the full
joint matrix.  ObservableSet.matrices() is the one place that forms the
joint a (x) I_B or I_A (x) b, for the dense routes only.

HP_QUADRATURES names the sextet members and the scale of the
Holstein-Primakoff quadratures once, for hp_quadrature_set and for
hp_quadrature_block, which reads the quadratures' criterion matrices off
the sextet's as its (S^y, S^z) block divided by 2M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .linalg import INPUT_HERMITICITY_TOL, hermiticity_defect, kron, partial_transpose

SUPPORT_A = "A"
SUPPORT_B = "B"
SUPPORT_JOINT = "JOINT"

PT_PARITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


class _Quadratures(NamedTuple):
    labels: tuple[str, ...]
    index: tuple[int, ...]  # of each quadrature's spin member in the sextet
    spin_factor: float  # a quadrature is its spin member over sqrt(spin_factor * M)


# The Holstein-Primakoff quadratures (x_A, p_A, x_B, p_B) = (S^y_A, S^z_A,
# S^y_B, S^z_B) / sqrt(2M): the one source of hp_quadrature_set and of
# hp_quadrature_block, so the set and the sextet slice cannot drift apart.
HP_QUADRATURES = _Quadratures(("x_A", "p_A", "x_B", "p_B"), (1, 2, 4, 5), 2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with a support tag.

    matrix is the local factor for support "A" or "B" and the joint-space
    matrix for "JOINT".
    """

    label: str
    matrix: np.ndarray
    support: str

    def __post_init__(self):
        if self.support not in (SUPPORT_A, SUPPORT_B, SUPPORT_JOINT):
            raise ValueError(f"unknown support tag {self.support!r}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable {self.label!r} is not a square matrix")
        if not np.isfinite(m).all():
            raise ValueError(f"observable {self.label!r} contains NaN or Inf entries")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def pt_parity(self) -> int | None:
        """The s with PT_B(xi) = s xi: +1 on A; on B the s of +1, -1 with
        ||b^T - s b|| <= PT_PARITY_TOL ||b||; None otherwise and for a JOINT
        member, whose parity nothing reads."""
        if self.support != SUPPORT_B:
            return 1 if self.support == SUPPORT_A else None
        bound = PT_PARITY_TOL * np.linalg.norm(self.matrix)
        return next((s for s in (1, -1)
                     if np.linalg.norm(self.matrix.T - s * self.matrix) <= bound), None)


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Ordered observables on one bipartite space; each table of the operators
    alone, such as the pt_tables both dense readers share, is cached on first use."""

    observables: tuple[Observable, ...]
    dim_a: int
    dim_b: int

    def __post_init__(self):
        obs = tuple(self.observables)
        if not obs:
            raise ValueError("observable set is empty")
        sizes = {SUPPORT_A: self.dim_a, SUPPORT_B: self.dim_b,
                 SUPPORT_JOINT: self.dim_a * self.dim_b}
        labels = set()
        for o in obs:
            d = sizes[o.support]
            if o.matrix.shape != (d, d):
                raise ValueError(
                    f"observable {o.label!r} is tagged {o.support!r} but has shape "
                    f"{o.matrix.shape}, expected ({d}, {d})"
                )
            if hermiticity_defect(o.matrix) > INPUT_HERMITICITY_TOL:
                raise ValueError(f"observable {o.label!r} is not Hermitian")
            if o.label in labels:
                raise ValueError(f"duplicate observable label {o.label!r}")
            labels.add(o.label)
        object.__setattr__(self, "observables", obs)

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    def __getitem__(self, i) -> Observable:
        return self.observables[i]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.observables)

    def matrices(self) -> list[np.ndarray]:
        """Joint-space matrices: a (x) I_B, I_A (x) b, or the joint member itself."""
        eye_a = np.eye(self.dim_a, dtype=complex)
        eye_b = np.eye(self.dim_b, dtype=complex)
        return [
            np.kron(o.matrix, eye_b) if o.support == SUPPORT_A
            else np.kron(eye_a, o.matrix) if o.support == SUPPORT_B
            else o.matrix
            for o in self.observables
        ]

    @cached_property
    def is_local(self) -> bool:
        return all(o.support != SUPPORT_JOINT for o in self.observables)

    @cached_property
    def on_b(self) -> np.ndarray:
        return np.array([o.support == SUPPORT_B for o in self.observables])

    @cached_property
    def pt_set(self) -> "ObservableSet":
        """The members PT_B(xi_j) under their labels: each A member as it is,
        each B factor b as the view b^T.  A JOINT member is refused by name."""
        for o in self:
            if o.support == SUPPORT_JOINT:
                raise ValueError(f"observable {o.label!r} is JOINT; pt_set needs "
                                 "members tagged 'A' or 'B'")
        return ObservableSet(tuple(Observable(o.label, o.matrix.T, o.support) if on_b else o
                                   for o, on_b in zip(self, self.on_b)), self.dim_a, self.dim_b)

    @cached_property
    def mixed_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """tau_j = Tr(xi_j)/D and T_c = T - tau tau^T, T[j,k] = Tr(xi_j xi_k)/D:
        the maximally mixed means and centered moments of a local set."""
        side_dims = np.where(self.on_b, self.dim_b, self.dim_a)
        tau = np.array([np.trace(o.matrix).real for o in self]) / side_dims
        t_c = np.zeros((len(self), len(self)))
        for j, k in combinations_with_replacement(range(len(self)), 2):
            if self.on_b[j] == self.on_b[k]:
                tr = np.einsum("ab,ba->", self[j].matrix, self[k].matrix).real / side_dims[j]
                t_c[j, k] = t_c[k, j] = tr - tau[j] * tau[k]
        return tau, t_c

    @cached_property
    def pt_tables(self) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
        """Pairs j <= k, PT_B(xi_j) and PT_B(xi_j xi_k): the dense route's one
        table, traced against rho for the criterion and against PT_B(rho) for
        the moments.  N(N+3)/2 preallocated D x D slots, 84 MB at M = 20."""
        da, db = self.dim_a, self.dim_b
        mats = self.matrices()
        pairs = list(combinations_with_replacement(range(len(mats)), 2))
        table = np.empty((len(mats) + len(pairs), da * db, da * db), dtype=complex)
        for out, x in zip(table, chain(mats, (mats[j] @ mats[k] for j, k in pairs))):
            out[...] = partial_transpose(x, da, db, "B")
        return pairs, table[:len(mats)], table[len(mats):]


def pauli_product_set() -> ObservableSet:
    """The two-qubit triple (sigma^x sigma^x, sigma^y sigma^y, sigma^z sigma^z)."""
    members = (
        Observable("XX", kron(PAULI_X, PAULI_X), SUPPORT_JOINT),
        Observable("YY", kron(PAULI_Y, PAULI_Y), SUPPORT_JOINT),
        Observable("ZZ", kron(PAULI_Z, PAULI_Z), SUPPORT_JOINT),
    )
    return ObservableSet(members, 2, 2)


def collective_spin_matrices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-ensemble (S^x, S^y, S^z) in the Dicke basis, Pauli-sum scale.

    S^z = diag(M - 2k); the raising part has elements sqrt(k (M - k + 1)) on
    the first superdiagonal.  For M = 1 these are exactly the Pauli matrices.
    """
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    k = np.arange(m + 1)
    sz = np.diag((m - 2 * k).astype(complex))
    up = np.zeros((m + 1, m + 1))
    kk = np.arange(1, m + 1)
    up[kk - 1, kk] = np.sqrt(kk * (m - kk + 1))
    sx = (up + up.T).astype(complex)
    sy = -1j * (up - up.T)
    return sx, sy, sz


def collective_spin_set(m: int) -> ObservableSet:
    """The sextet (S^x_A, S^y_A, S^z_A, S^x_B, S^y_B, S^z_B), each stored as
    its (M+1) x (M+1) factor."""
    sx, sy, sz = collective_spin_matrices(m)
    members = (
        Observable("Sx_A", sx, SUPPORT_A),
        Observable("Sy_A", sy, SUPPORT_A),
        Observable("Sz_A", sz, SUPPORT_A),
        Observable("Sx_B", sx, SUPPORT_B),
        Observable("Sy_B", sy, SUPPORT_B),
        Observable("Sz_B", sz, SUPPORT_B),
    )
    return ObservableSet(members, m + 1, m + 1)


def _require_spin_sextet(obs_set: ObservableSet):
    if [o.support for o in obs_set] != [SUPPORT_A] * 3 + [SUPPORT_B] * 3:
        raise ValueError("expected a spin sextet ordered (x, y, z) on A then (x, y, z) on B")


def hp_quadrature_set(m: int, spin_set: ObservableSet | None = None) -> ObservableSet:
    """Quadratures (x_A, p_A, x_B, p_B) = (S^y, S^z)_(A,B) / sqrt(2M), the
    sextet members and scale that HP_QUADRATURES names.

    With spin_set given (for example a rotated sextet), its y and z members
    are scaled instead, so sub-optimal measurement axes can be modeled.  The
    criterion matrix of this set is the sextet's at HP_QUADRATURES.index
    divided by 2M (hp_quadrature_block), since the criterion matrix is
    bilinear in the operators.
    """
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    if spin_set is None:
        spin_set = collective_spin_set(m)
    _require_spin_sextet(spin_set)
    if (spin_set.dim_a, spin_set.dim_b) != (m + 1, m + 1):
        raise ValueError(
            f"spin_set has dimensions {spin_set.dim_a}x{spin_set.dim_b}, "
            f"expected {m + 1}x{m + 1} for m={m}"
        )
    scale = 1.0 / np.sqrt(HP_QUADRATURES.spin_factor * m)
    members = tuple(
        Observable(label, scale * spin_set[i].matrix, spin_set[i].support)
        for label, i in zip(HP_QUADRATURES.labels, HP_QUADRATURES.index)
    )
    return ObservableSet(members, spin_set.dim_a, spin_set.dim_b)


def hp_quadrature_block(sextet_matrices: np.ndarray, m: int) -> np.ndarray:
    """The quadrature set's matrices, (..., 4, 4), from a stack (..., 6, 6) of
    matrices of the spin sextet that are bilinear in its operators, such as
    criterion matrices: the HP_QUADRATURES block divided by 2M."""
    i = np.array(HP_QUADRATURES.index)
    return sextet_matrices[..., i[:, None], i] / (HP_QUADRATURES.spin_factor * m)


def rotate_so3(obs_set: ObservableSet, r) -> ObservableSet:
    """Apply one 3x3 rotation to the A spin triple and the B spin triple."""
    _require_spin_sextet(obs_set)
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("rotation matrix contains NaN or Inf entries")
    if np.linalg.norm(r.T @ r - np.eye(3)) > ORTHOGONALITY_TOL:
        raise ValueError("rotation matrix is not orthogonal")
    members = tuple(
        Observable(obs_set[block + i].label + "'",
                   sum(r[i, j] * obs_set[block + j].matrix for j in range(3)),
                   obs_set[block + i].support)
        for block in (0, 3) for i in range(3)
    )
    return ObservableSet(members, obs_set.dim_a, obs_set.dim_b)
