"""Independent reference computations the tests check the library against.

Everything here is deliberately written from scratch (loops, explicit index
arithmetic, brute-force enumeration) rather than calling back into the
package, so a bug in the library cannot hide behind itself.
"""

from itertools import combinations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def partial_transpose_loops(m, da, db, subsystem="B"):
    """Entry-by-entry partial transpose using explicit index arithmetic."""
    out = np.zeros_like(m)
    for a in range(da):
        for b in range(db):
            for ap in range(da):
                for bp in range(db):
                    row, col = a * db + b, ap * db + bp
                    if subsystem == "B":
                        src = (a * db + bp, ap * db + b)
                    else:
                        src = (ap * db + b, a * db + bp)
                    out[row, col] = m[src]
    return out


def partial_trace_b(rho, da, db):
    out = np.zeros((da, da), dtype=complex)
    for a in range(da):
        for ap in range(da):
            out[a, ap] = sum(rho[a * db + b, ap * db + b] for b in range(db))
    return out


def expectation(rho, op):
    return np.trace(rho @ op)


def criterion_matrix_pt_state(rho, obs_set):
    """Criterion matrix averaged against the partially transposed state.

    Entry (j,k) is Tr[PT_B(rho) xi_j xi_k] - Tr[PT_B(rho) xi_j] Tr[PT_B(rho) xi_k]
    with the untransposed operators.  rho is a density-matrix object with a
    .matrix or a raw array; obs_set provides matrices(), dim_a and dim_b.
    """
    m = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    sigma = partial_transpose_loops(m, obs_set.dim_a, obs_set.dim_b, "B")
    mats = obs_set.matrices()
    n = len(mats)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = (
                expectation(sigma, mats[j] @ mats[k])
                - expectation(sigma, mats[j]) * expectation(sigma, mats[k])
            )
    return out


def criterion_matrix_from_data_loops(partition, pt_parity, v, omega):
    """Criterion matrix of a correlation record, case by case on the
    partition tags "A"/"B": A-A pairs give V + (i/2) Omega, B-B pairs
    s_j s_k (V - (i/2) Omega), and mixed pairs the B-side parity times V."""
    n = len(partition)
    c = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            half_omega = 0.5j * omega[j, k]
            if partition[j] == "A" and partition[k] == "A":
                c[j, k] = v[j, k] + half_omega
            elif partition[j] == "B" and partition[k] == "B":
                c[j, k] = pt_parity[j] * pt_parity[k] * (v[j, k] - half_omega)
            elif partition[j] == "A":
                c[j, k] = pt_parity[k] * v[j, k]
            else:
                c[j, k] = pt_parity[j] * v[j, k]
    return (c + c.conj().T) / 2


def triple_residual_overlap(psi, mats):
    """Three-operator residual of a pure state from the overlap vectors
    f_i = (xi_i - <xi_i>)|psi>, the determinant of their Gram matrix
    written out term by term."""
    f = [x @ psi - np.vdot(psi, x @ psi).real * psi for x in mats]
    g = [[np.vdot(f[i], f[j]) for j in range(3)] for i in range(3)]
    return (
        g[0][0] * g[1][1] * g[2][2]
        - g[0][0] * abs(g[1][2]) ** 2
        - g[1][1] * abs(g[0][2]) ** 2
        - g[2][2] * abs(g[0][1]) ** 2
        + 2.0 * (g[0][1] * g[1][2] * g[2][0])
    ).real


def covariance_entry(rho, x, y):
    anti = 0.5 * np.trace(rho @ (x @ y + y @ x))
    return (anti - np.trace(rho @ x) * np.trace(rho @ y)).real


def commutation_entry(rho, x, y):
    return (-1j * np.trace(rho @ (x @ y - y @ x))).real


def pair_residual(rho, x, y):
    """Two-operator residual sigma_x^2 sigma_y^2 - V_xy^2 - (Omega_xy / 2)^2
    from the entrywise covariance and commutation oracles."""
    v = covariance_entry(rho, x, x) * covariance_entry(rho, y, y)
    return v - covariance_entry(rho, x, y) ** 2 - (commutation_entry(rho, x, y) / 2) ** 2


def principal_minor_sum(m, k):
    """Brute-force sum of k x k principal minors."""
    n = m.shape[0]
    total = 0.0
    for subset in combinations(range(n), k):
        sub = m[np.ix_(subset, subset)]
        total += np.linalg.det(sub).real
    return total


def bell_pt_matrix():
    """Hand-placed partial transpose of the Bell projector."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = 0.5
    out[1, 2] = out[2, 1] = 0.5
    return out


def szsz_evolve_entries(amplitudes, m, ts):
    """exp(i (M-2j)(M-2k) t) times the start amplitude, one complex exp per
    entry of the (len(ts), D) grid, a row at a time."""
    sz = (m - 2 * np.arange(m + 1)).astype(float)
    phase = np.outer(sz, sz).ravel()
    rows = np.empty((len(ts), phase.size), dtype=complex)
    for t, row in zip(np.asarray(ts, dtype=float), rows):
        np.multiply(1j * t, phase, out=row)
        np.exp(row, out=row)
        np.multiply(amplitudes, row, out=row)
    return rows


def centered_gram_matmul(mats, factors, on_b):
    """p_j = Re<psi|v_j> and the Gram matrix of v_j - p_j psi for each
    amplitude matrix Psi of the stack mats (n, dim_a, dim_b), with every
    v_j formed by a matmul: f_j Psi for an A factor, Psi f_j for a B one."""
    n, da, db = mats.shape
    amps = mats.reshape(n, -1)
    v = np.empty((n, len(factors), da, db), dtype=complex)
    for j, (f, b_side) in enumerate(zip(factors, on_b)):
        if b_side:
            np.matmul(mats, f, out=v[:, j])
        else:
            np.matmul(f, mats, out=v[:, j])
    v = v.reshape(n, len(factors), -1)
    p = np.matmul(v, amps.conj()[:, :, None])[:, :, 0].real
    v -= np.matmul(p[:, :, None].astype(complex), amps[:, None, :])
    return p, np.matmul(v.conj(), np.swapaxes(v, -1, -2))
