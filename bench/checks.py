"""Correctness checks on the CLI outputs, run after the timed section.

Every check is a property the covariance-matrix method must have, or a
computation made here from scratch: Dicke-basis spin matrices from the
angular-momentum ladder, the evolved ensemble state, a partial transpose by
index arithmetic, and direct traces.  Nothing here imports ``entcov`` or
compares against a stored copy of earlier output.

Each checker returns a list of failure messages; an empty list means the
output passed.  The messages start with a short tag naming the property, so
the self-test can tell which check rejected a corrupted output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ENTANGLED = "ENTANGLED"
DETECT_TOL = 1e-9  # the CLI's default verdict tolerance
M_SWEEP = 20
WINDOW_CLOSE = 0.13  # where the paper reports the M=20 window closes
WINDOW_CLOSE_TOL = 0.01
SCRATCH_SAMPLES = 4  # sweep rows recomputed from scratch, half inside the window
SCRATCH_REL_TOL = 1e-9
INTERLACE_REL_TOL = 1e-10
ROTATION_ABS_TOL = 1e-9
PPT_FORMULA_TOL = 1e-10
WITNESS_M = 2
WITNESS_MU, WITNESS_T = 1.0, 0.3
WITNESS_PROPOSALS = 15 * 80
WITNESS_TRACE_TOL = 1e-9
WITNESS_PRODUCT_FLOOR = -1e-9
WITNESS_PRODUCT_STATES = 500
WITNESS_RESIDUAL_MAX = 1e-6
WITNESS_DETECT = -1e-6  # the CLI's witness verdict threshold
BATTERY_PROPERTIES = (
    "covariance matrix symmetric",
    "commutation matrix antisymmetric",
    "uncertainty matrix positive semidefinite",
    "mixture dominates weighted pure-state uncertainty",
    "pure-state uncertainty equals overlap matrix",
    "invariant ladder matches residual sums",
)


# --- reading the CLI's CSV files -------------------------------------------

def read_table(path: Path) -> dict:
    """Columns of a CLI CSV as arrays (float where every entry parses),
    plus its '#' comment lines under the key '#'."""
    comments, rows = [], []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    table = {"#": comments}
    for i, name in enumerate(header):
        values = [r[i] for r in rows]
        try:
            table[name] = np.array([float(v) for v in values])
        except ValueError:
            table[name] = np.array(values)
    return table


# --- physics from scratch ----------------------------------------------------

def spin_matrices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S^x, S^y, S^z) = 2 (J^x, J^y, J^z) for spin J = m/2 in the Dicke basis.

    Dicke index k carries J^z = J - k, so J+ maps k to k-1 with the ladder
    element sqrt(J(J+1) - mz(mz+1)).
    """
    j = m / 2.0
    d = m + 1
    jplus = np.zeros((d, d))
    for k in range(1, d):
        mz = j - k
        jplus[k - 1, k] = math.sqrt(j * (j + 1) - mz * (mz + 1))
    jminus = jplus.T
    sx = (jplus + jminus).astype(complex)
    sy = -1j * (jplus - jminus)
    sz = np.diag([2.0 * (j - k) for k in range(d)]).astype(complex)
    return sx, sy, sz


def amplitude_matrix(m: int, t: float) -> np.ndarray:
    """A[j, k] = c_j c_k exp(i t s_j s_k): the x-polarized pair after
    exp(i S^z_A S^z_B t), with c_k = sqrt(C(m, k)) / 2^(m/2), s_k = m - 2k."""
    c = np.array([math.sqrt(math.comb(m, k)) for k in range(m + 1)]) / 2 ** (m / 2)
    s = np.array([m - 2 * k for k in range(m + 1)], dtype=float)
    return np.outer(c, c) * np.exp(1j * t * np.outer(s, s))


def partial_transpose_b(x: np.ndarray, d: int) -> np.ndarray:
    """PT_B by index arithmetic: entry ((a,b),(a',b')) moves to ((a,b'),(a',b))."""
    a, b = np.divmod(np.arange(d * d), d)
    rows = a[:, None] * d + b[None, :]
    cols = a[None, :] * d + b[:, None]
    return x[rows, cols]


def spin_sextet(m: int) -> list[np.ndarray]:
    eye = np.eye(m + 1)
    sx, sy, sz = spin_matrices(m)
    return [np.kron(s, eye) for s in (sx, sy, sz)] + [np.kron(eye, s) for s in (sx, sy, sz)]


class ScratchCriterion:
    """Criterion matrix C[j,k] = Tr[rho PT_B(x_j x_k)] - Tr[rho PT_B(x_j)] Tr[rho PT_B(x_k)]
    for the unrotated spin sextet and a pure state rho."""

    def __init__(self, m: int):
        self.m = m
        d = m + 1
        ops = spin_sextet(m)
        self.singles = [partial_transpose_b(x, d) for x in ops]
        self.products = {
            (j, k): partial_transpose_b(ops[j] @ ops[k], d)
            for j in range(6) for k in range(j, 6)
        }

    def matrix(self, t: float) -> np.ndarray:
        psi = amplitude_matrix(self.m, t).ravel()
        rho = np.outer(psi, psi.conj())
        trace = lambda x: np.sum(rho * x.T)  # noqa: E731  Tr(rho x), entry by entry
        means = [trace(x).real for x in self.singles]
        c = np.zeros((6, 6), dtype=complex)
        for (j, k), x in self.products.items():
            c[j, k] = trace(x) - means[j] * means[k]
            c[k, j] = np.conj(c[j, k])
        return c


def scratch_sample_rows(detected: np.ndarray, seed: int) -> list[int]:
    """Seeded sweep rows to recompute: half inside the window, half outside."""
    rng = np.random.default_rng([seed, 0x5ca1])
    inside = np.flatnonzero(detected)
    outside = np.flatnonzero(~detected)
    half = SCRATCH_SAMPLES // 2
    picks = []
    for pool, count in ((inside, half), (outside, SCRATCH_SAMPLES - half)):
        if pool.size:
            picks.extend(int(i) for i in rng.choice(pool, min(count, pool.size), replace=False))
    return sorted(picks)


# --- checkers ----------------------------------------------------------------

def _eigs(table: dict) -> np.ndarray:
    return np.stack([table[f"cm_eig_{i}"] for i in range(1, 7)], axis=1)


def _reported_flips(table: dict, prefix: str) -> list[float]:
    marker = f"{prefix} verdict flip at t = "
    return [float(c[len(marker):].split(" ")[0]) for c in table["#"] if c.startswith(marker)]


def check_sweep(sweep: dict, rotated: dict, seed: int) -> list[str]:
    """The M=20 pure-state sweep on optimal and on 45-degree rotated axes."""
    fail = []
    ts = sweep["t"]
    eigs = _eigs(sweep)
    detected = sweep["cm_verdict"] == ENTANGLED
    negatives = (eigs < -DETECT_TOL).sum(axis=1)

    if not np.array_equal(detected, negatives > 0):
        fail.append("verdict: cm_verdict disagrees with the sign of cm_eig_1")
    window = np.flatnonzero(detected)
    if window.size == 0 or ts[0] != 0.0:
        fail.append("window: no cm detection, or the sweep does not start at t = 0")
        return fail
    last = int(window[-1])
    if not np.array_equal(window, np.arange(1, last + 1)):
        fail.append("window: cm detections are not one interval starting at the first t > 0")
    if np.any(negatives[window] != 1):
        fail.append("window: not exactly one negative eigenvalue inside the window")
    if last + 1 < ts.size:
        close = 0.5 * (ts[last] + ts[last + 1])
        scaling = 1.0 / (2.0 * math.sqrt(M_SWEEP))
        if abs(close - WINDOW_CLOSE) > WINDOW_CLOSE_TOL:
            fail.append(f"window: closes at t = {close:.4f}, not {WINDOW_CLOSE} +/- {WINDOW_CLOSE_TOL}")
        if not scaling / 2 < close < 2 * scaling:
            fail.append(f"window: closes at t = {close:.4f}, not within 2x of 1/(2 sqrt M)")
        expected = np.array([0.5 * (ts[0] + ts[1]), close])
        reported = np.array(_reported_flips(sweep, "cm"))
        if reported.shape != expected.shape or np.abs(reported - expected).max() > 1e-15:
            fail.append("window: reported cm flips are not the midpoints of the bracketing rows")
    else:
        fail.append("window: the cm window never closes on the grid")

    dets = sweep["cm_det"]
    if np.any(dets[detected] >= 0.0):
        fail.append("determinant: cm_det is not negative on a detected row")
    floor = -DETECT_TOL * np.prod(np.abs(eigs[:, 1:]), axis=1)
    if np.any(dets[~detected] < floor[~detected]):
        fail.append("determinant: cm_det is negative on an undetected row")

    for name, table in (("optimal", sweep), ("rotated", rotated)):
        lhs = table["ds_min_eig"] * 2 * M_SWEEP
        rhs = table["cm_eig_1"] - INTERLACE_REL_TOL * np.abs(_eigs(table)).max(axis=1)
        if np.any(lhs < rhs):
            fail.append(f"interlacing: ds_min_eig * 2M < cm_eig_1 on the {name} axes")
        ds_detected = table["ds_verdict"] == ENTANGLED
        if np.any(ds_detected & (table["cm_verdict"] != ENTANGLED)):
            fail.append(f"interlacing: the {name} ds window leaves the cm window")

    if not np.array_equal(rotated["t"], ts):
        fail.append("rotation: rotated sweep is on another t grid")
    elif np.abs(_eigs(rotated) - eigs).max() > ROTATION_ABS_TOL:
        fail.append("rotation: rotated cm spectrum differs from the optimal-axes spectrum")

    scratch = ScratchCriterion(M_SWEEP)
    for row in scratch_sample_rows(detected, seed):
        c = scratch.matrix(float(ts[row]))
        mine = np.linalg.eigvalsh(c)
        scale = np.abs(mine).max()
        if np.abs(mine - eigs[row]).max() > SCRATCH_REL_TOL * scale:
            fail.append(f"scratch: cm spectrum at t = {float(ts[row])!r} differs from the recomputation")
        quads = c[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])] / (2 * M_SWEEP)
        ds_min = np.linalg.eigvalsh(quads)[0]
        if abs(ds_min - sweep["ds_min_eig"][row]) > SCRATCH_REL_TOL * scale:
            fail.append(f"scratch: ds_min_eig at t = {float(ts[row])!r} differs from the recomputation")
    return fail


def check_regions(table: dict, mu_steps: int, t_steps: int, t_max: float) -> list[str]:
    """The M=20 (mu, t) map with the cm and ppt columns."""
    fail = []
    mus, ts = table["mu"], table["t"]
    d = (M_SWEEP + 1) ** 2
    if mus.size != mu_steps * t_steps:
        fail.append(f"grid: {mus.size} rows, expected {mu_steps * t_steps}")
        return fail
    expect_mu = np.repeat(np.linspace(0.0, 1.0, mu_steps), t_steps)
    expect_t = np.tile(np.linspace(0.0, t_max, t_steps), mu_steps)
    if np.abs(mus - expect_mu).max() > 1e-15 or np.abs(ts - expect_t).max() > 1e-15:
        fail.append("grid: rows are not the requested (mu, t) grid")

    schmidt = {}
    for t in np.unique(ts):
        s = np.linalg.svd(amplitude_matrix(M_SWEEP, float(t)), compute_uv=False)
        schmidt[float(t)] = s[0] * s[1]
    expected = np.array([-mu * schmidt[float(t)] + (1.0 - mu) / d for mu, t in zip(mus, ts)])
    worst = np.abs(table["ppt_min_eig"] - expected).max()
    if worst > PPT_FORMULA_TOL:
        fail.append(f"ppt: ppt_min_eig deviates from -mu s1 s2 + (1-mu)/D by {worst:.2e}")

    detected = table["cm_verdict"] == ENTANGLED
    if not np.array_equal(detected, table["cm_eig_1"] < -DETECT_TOL):
        fail.append("verdict: cm_verdict disagrees with the sign of cm_eig_1")
    if np.any(table["ppt_min_eig"][detected] >= 0.0):
        fail.append("containment: a cm-detected point has a positive partial transpose")
    if np.any(detected[mus == 0.0]):
        fail.append("containment: a point is detected at mu = 0")
    return fail


def witness_matrix(coefficients: np.ndarray, m: int) -> np.ndarray:
    eye = np.eye(m + 1, dtype=complex)
    basis = (eye, *spin_matrices(m))
    return sum(coefficients[i, j] * np.kron(basis[i], basis[j])
               for i in range(4) for j in range(4))


def check_witness(table: dict, seed: int) -> list[str]:
    """One annealed witness at m=2, mu=1, t=0.3."""
    fail = []
    if table["min_expectation"].size != 1:
        return ["witness: expected exactly one result row"]
    value = float(table["min_expectation"][0])
    residual = float(table["feasibility_residual"][0])
    if int(table["iterations"][0]) != WITNESS_PROPOSALS:
        fail.append(f"iterations: {int(table['iterations'][0])}, expected {WITNESS_PROPOSALS}")
    if not residual <= WITNESS_RESIDUAL_MAX:
        fail.append(f"residual: feasibility residual {residual:.2e} > {WITNESS_RESIDUAL_MAX}")

    coefficients = np.array([[table[f"c_{i}{j}"][0] for j in range(4)] for i in range(4)])
    w = witness_matrix(coefficients, WITNESS_M)
    if abs(np.trace(w) - 1.0) > 1e-12:
        fail.append(f"trace: Tr W = {float(np.trace(w).real)!r}, expected 1")
    d = WITNESS_M + 1
    psi = amplitude_matrix(WITNESS_M, WITNESS_T).ravel()
    rho = WITNESS_MU * np.outer(psi, psi.conj()) + (1.0 - WITNESS_MU) * np.eye(d * d) / (d * d)
    expectation = np.sum(rho * w.T).real
    if abs(expectation - value) > WITNESS_TRACE_TOL:
        fail.append(f"expectation: Tr(W rho) = {float(expectation)!r}, reported {value!r}")

    rng = np.random.default_rng([seed, 0x3a7])
    worst = np.inf
    for _ in range(WITNESS_PRODUCT_STATES):
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        worst = min(worst, np.vdot(v, w @ v).real)
    if worst < WITNESS_PRODUCT_FLOOR:
        fail.append(f"product: <W> = {worst:.2e} on a product state, below {WITNESS_PRODUCT_FLOOR}")

    if value < WITNESS_DETECT:
        ppt_min = np.linalg.eigvalsh(partial_transpose_b(rho, d))[0]
        if ppt_min >= 0.0:
            fail.append("containment: witness detects a state with a positive partial transpose")
    return fail


def check_battery(stdout: str, trials: int) -> list[str]:
    """All six properties of the battery pass over the requested trials."""
    fail = []
    lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
    names = [ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines if "] " in ln]
    if tuple(names) != BATTERY_PROPERTIES:
        fail.append(f"battery: properties reported {names}, expected the six of the battery")
    for ln in lines:
        if not ln.startswith("[PASS] "):
            fail.append(f"battery: {ln}")
    counted = [ln for ln in lines if f"over {trials} trials" in ln]
    if len(counted) != 2:
        fail.append(f"battery: trial count {trials} is not reported by the symmetry checks")
    return fail
