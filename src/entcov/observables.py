"""Observable sets: Pauli products, collective spins in the Dicke basis,
Holstein-Primakoff quadratures, and SO(3)-rotated variants.

The Dicke-basis matrix elements are real for S^x and S^z and purely
imaginary for S^y, so the transpose over one subsystem acts on the
generated operators as an exact sign: +1 for S^x, S^z and -1 for S^y.
That sign is recorded as pt_parity on each observable.

An observable tagged "A" or "B" stores its local factor a or b, a
dim_a x dim_a or dim_b x dim_b matrix; one tagged "JOINT" stores the full
joint matrix.  ObservableSet.matrices() is the one place that forms the
joint a (x) I_B or I_A (x) b, for the dense routes only.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement

import numpy as np

from .linalg import kron, partial_transpose

SUPPORT_A = "A"
SUPPORT_B = "B"
SUPPORT_JOINT = "JOINT"

OBS_HERMITICITY_TOL = 1e-10
PT_PARITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def is_unit_parity(s) -> bool:
    """A transpose parity: a real +1 or -1 that is not a bool."""
    return not isinstance(s, bool) and isinstance(s, numbers.Real) and s in (1, -1)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with support and parity tags.

    matrix is the local factor for support "A" or "B" and the joint-space
    matrix for "JOINT".  pt_parity, when set, asserts that the partial
    transpose over B maps the joint operator to pt_parity times itself, and
    is stored as a Python int; ObservableSet verifies the claim.
    """

    label: str
    matrix: np.ndarray
    support: str
    pt_parity: int | None = None

    def __post_init__(self):
        if self.support not in (SUPPORT_A, SUPPORT_B, SUPPORT_JOINT):
            raise ValueError(f"unknown support tag {self.support!r}")
        if self.pt_parity is not None:
            if not is_unit_parity(self.pt_parity):
                raise ValueError(f"pt_parity must be +1, -1 or None, got {self.pt_parity!r}")
            object.__setattr__(self, "pt_parity", int(self.pt_parity))
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable {self.label!r} is not a square matrix")
        if not np.isfinite(m).all():
            raise ValueError(f"observable {self.label!r} contains NaN or Inf entries")
        object.__setattr__(self, "matrix", m)


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
            scale = max(1.0, float(np.linalg.norm(o.matrix)))
            if np.linalg.norm(o.matrix - o.matrix.conj().T) > OBS_HERMITICITY_TOL * scale:
                raise ValueError(f"observable {o.label!r} is not Hermitian")
            if o.pt_parity is not None:
                # PT_B maps a (x) I_B to itself and I_A (x) b to I_A (x) b^T
                if o.support == SUPPORT_JOINT:
                    pt = partial_transpose(o.matrix, self.dim_a, self.dim_b, "B")
                else:
                    pt = o.matrix.T if o.support == SUPPORT_B else o.matrix
                if np.linalg.norm(pt - o.pt_parity * o.matrix) > PT_PARITY_TOL * scale:
                    raise ValueError(
                        f"observable {o.label!r} does not have partial-transpose "
                        f"parity {o.pt_parity}"
                    )
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
        Observable("XX", kron(PAULI_X, PAULI_X), SUPPORT_JOINT, 1),
        Observable("YY", kron(PAULI_Y, PAULI_Y), SUPPORT_JOINT, -1),
        Observable("ZZ", kron(PAULI_Z, PAULI_Z), SUPPORT_JOINT, 1),
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
        Observable("Sx_A", sx, SUPPORT_A, 1),
        Observable("Sy_A", sy, SUPPORT_A, 1),
        Observable("Sz_A", sz, SUPPORT_A, 1),
        Observable("Sx_B", sx, SUPPORT_B, 1),
        Observable("Sy_B", sy, SUPPORT_B, -1),
        Observable("Sz_B", sz, SUPPORT_B, 1),
    )
    return ObservableSet(members, m + 1, m + 1)


def _require_spin_sextet(obs_set: ObservableSet):
    supports = tuple(o.support for o in obs_set)
    if len(obs_set) != 6 or supports != (
        SUPPORT_A, SUPPORT_A, SUPPORT_A, SUPPORT_B, SUPPORT_B, SUPPORT_B,
    ):
        raise ValueError(
            "expected a spin sextet ordered (x, y, z) on A then (x, y, z) on B"
        )


def hp_quadrature_set(m: int, spin_set: ObservableSet | None = None) -> ObservableSet:
    """Quadratures (x_A, p_A, x_B, p_B) = (S^y, S^z)_(A,B) / sqrt(2M).

    With spin_set given (for example a rotated sextet), its y and z members
    are scaled instead, so sub-optimal measurement axes can be modeled.
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
    scale = 1.0 / np.sqrt(2.0 * m)
    picks = (("x_A", 1), ("p_A", 2), ("x_B", 4), ("p_B", 5))
    members = tuple(
        Observable(label, scale * spin_set[i].matrix, spin_set[i].support,
                   spin_set[i].pt_parity)
        for label, i in picks
    )
    return ObservableSet(members, spin_set.dim_a, spin_set.dim_b)


def rotate_so3(obs_set: ObservableSet, r) -> ObservableSet:
    """Apply one 3x3 rotation to the A spin triple and the B spin triple.

    The rotated operators generally have no definite partial-transpose
    parity, so pt_parity is cleared on every member.
    """
    _require_spin_sextet(obs_set)
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("rotation matrix contains NaN or Inf entries")
    if np.linalg.norm(r.T @ r - np.eye(3)) > ORTHOGONALITY_TOL:
        raise ValueError("rotation matrix is not orthogonal")
    members = []
    for block in (0, 3):
        triple = [obs_set[block + j].matrix for j in range(3)]
        for i in range(3):
            rotated = sum(r[i, j] * triple[j] for j in range(3))
            label = obs_set[block + i].label + "'"
            members.append(
                Observable(label, rotated, obs_set[block + i].support, None)
            )
    return ObservableSet(tuple(members), obs_set.dim_a, obs_set.dim_b)
