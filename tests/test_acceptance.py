"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy M=20 sweep is
computed once and shared; its wall time is measured inside criterion 2.
Criteria 2 and 4-6 are checked on the dense route (CriterionEvaluator on
werner_mix) and again on the grid route, the engines that write every
spin-ensemble CSV: szsz_evolve_blocks, CriterionGrid, hp_quadrature_block
and PptGrid.  The grid-route twins have no wall-time bound.
"""

import json
import math
import time

import numpy as np
import pytest

from entcov.criterion import (
    CorrelationData,
    CriterionEvaluator,
    CriterionGrid,
    correlation_data_from_state,
    criterion_matrix,
    criterion_matrix_from_data,
    detect,
)
from entcov.observables import (collective_spin_set, hp_quadrature_block, hp_quadrature_set,
                                pauli_product_set, rotate_so3)
from entcov.reference import AnnealParams, PptGrid, ppt_min_eigenvalue, witness_optimize
from entcov.states import (bell_state, product_state, spin_coherent_x, spin_ensemble_state,
                           szsz_evolve_blocks, werner_mix)
from entcov.suite import run_property_battery

DETECT_TOL = 1e-9
T_GRID = np.linspace(0.0, 0.5, 200)
ROTATION_45Z = np.array([[1, 1, 0], [-1, 1, 0], [0, 0, math.sqrt(2)]]) / math.sqrt(2)

_cache = {}


def _finish(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] acceptance {num}: {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _sweep_eigenvalues(evaluator, mu=1.0, m=20):
    states = [spin_ensemble_state(m, t) for t in T_GRID]
    return np.array([
        np.linalg.eigvalsh(evaluator.matrix(werner_mix(psi, mu))) for psi in states
    ])


def m20_cm():
    """Timed 6-operator sweep at M=20, mu=1; shared by criteria 2-5."""
    if "cm" not in _cache:
        start = time.perf_counter()
        evaluator = CriterionEvaluator(collective_spin_set(20))
        _cache["cm"] = _sweep_eigenvalues(evaluator)
        _cache["cm_seconds"] = time.perf_counter() - start
    return _cache["cm"]


def m20_ds():
    if "ds" not in _cache:
        _cache["ds"] = _sweep_eigenvalues(CriterionEvaluator(hp_quadrature_set(20)))
    return _cache["ds"]


def m20_rotated():
    if "rot" not in _cache:
        spin = rotate_so3(collective_spin_set(20), ROTATION_45Z)
        _cache["rot"] = _sweep_eigenvalues(CriterionEvaluator(spin))
        _cache["rot_ds"] = _sweep_eigenvalues(
            CriterionEvaluator(hp_quadrature_set(20, spin_set=spin))
        )
    return _cache["rot"], _cache["rot_ds"]


def detected_mask(eigs):
    return eigs[:, 0] < -DETECT_TOL


def _grid_blocks(m, ts):
    """The spin-ensemble psis of the times ts, in the blocks of the CLI sweep."""
    c = spin_coherent_x(m)
    return list(szsz_evolve_blocks(product_state(c, c), ts))


def _grid_matrices(obs_set, mus, blocks):
    """CriterionGrid matrices of every (mu, psi), mu-major, shape (n_mu n_psi, N, N)."""
    grid = CriterionGrid(obs_set)
    for block in blocks:
        grid.add(block)
    return grid.matrices(mus).reshape(-1, len(obs_set), len(obs_set))


def m20_grid():
    """Grid-route spectra at M=20, mu=1 over T_GRID: the sextet and its
    quadrature block, on the optimal and the 45-degree rotated axes;
    shared by the twins of criteria 2, 4 and 5."""
    if "grid" not in _cache:
        spin = collective_spin_set(20)
        blocks = _grid_blocks(20, T_GRID)
        spectra = []
        for s in (spin, rotate_so3(spin, ROTATION_45Z)):
            matrices = _grid_matrices(s, [1.0], blocks)
            spectra += [np.linalg.eigvalsh(matrices),
                        np.linalg.eigvalsh(hp_quadrature_block(matrices, 20))]
        _cache["grid"] = spectra
    return _cache["grid"]


def test_acceptance_1_werner_bell_threshold():
    failures = []
    start = time.perf_counter()
    evaluator = CriterionEvaluator(pauli_product_set())
    bell = bell_state()
    mus = np.linspace(0.0, 1.0, 201)
    eigs = np.array([
        np.linalg.eigvalsh(evaluator.matrix(werner_mix(bell, mu))) for mu in mus
    ])
    elapsed = time.perf_counter() - start

    neg_counts = (eigs < -DETECT_TOL).sum(axis=1)
    for mu, count in zip(mus, neg_counts):
        expected = 1 if mu > 1 / 3 else 0
        if count != expected:
            failures.append(f"mu={mu:.3f}: {count} negative eigenvalues, expected {expected}")
            break
    detected = neg_counts > 0
    first = int(np.argmax(detected))
    bracket = (mus[first - 1], mus[first])
    midpoint = 0.5 * sum(bracket)
    if not bracket[0] < 1 / 3 < bracket[1]:
        failures.append(f"flip bracket {bracket} does not contain 1/3")
    if abs(midpoint - 1 / 3) > 0.005:
        failures.append(f"flip midpoint {midpoint:.4f} further than 0.005 from 1/3")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish(1, f"Werner-Bell flip bracketed at {midpoint:.4f} in {elapsed:.2f}s", failures)


def test_acceptance_2_spin_ensemble_window():
    failures = []
    eigs = m20_cm()
    elapsed = _cache["cm_seconds"]
    neg_counts = (eigs < -DETECT_TOL).sum(axis=1)

    if neg_counts[0] != 0:
        failures.append("t=0 point is detected")
    detected_idx = np.flatnonzero(neg_counts > 0)
    last = int(detected_idx[-1])
    if not np.array_equal(detected_idx, np.arange(1, last + 1)):
        failures.append("detection window is not a single interval starting at the first t > 0")
    if not np.all(neg_counts[1:last + 1] == 1):
        failures.append("more than one negative eigenvalue inside the window")
    flip = 0.5 * (T_GRID[last] + T_GRID[last + 1])
    if abs(flip - 0.13) > 0.01:
        failures.append(f"flip at t={flip:.4f}, outside 0.13 +/- 0.01")
    scaling = 1.0 / (2.0 * math.sqrt(20.0))
    if not scaling / 2 < flip < scaling * 2:
        failures.append(f"flip {flip:.4f} not within a factor 2 of 1/(2 sqrt(M)) = {scaling:.4f}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(2, f"M=20 window flips at t={flip:.4f} in {elapsed:.1f}s", failures)


def test_acceptance_2_grid_route():
    failures = []
    neg_counts = (m20_grid()[0] < -DETECT_TOL).sum(axis=1)
    if neg_counts[0] != 0:
        failures.append("t=0 point is detected")
    detected_idx = np.flatnonzero(neg_counts > 0)
    last = int(detected_idx[-1])
    if not np.array_equal(detected_idx, np.arange(1, last + 1)):
        failures.append("detection window is not a single interval starting at the first t > 0")
    if not np.all(neg_counts[1:last + 1] == 1):
        failures.append("more than one negative eigenvalue inside the window")
    flip = 0.5 * (T_GRID[last] + T_GRID[last + 1])
    if abs(flip - 0.13) > 0.01:
        failures.append(f"flip at t={flip:.4f}, outside 0.13 +/- 0.01")
    scaling = 1.0 / (2.0 * math.sqrt(20.0))
    if not scaling / 2 < flip < scaling * 2:
        failures.append(f"flip {flip:.4f} not within a factor 2 of 1/(2 sqrt(M)) = {scaling:.4f}")
    _finish(2, f"grid route: M=20 window flips at t={flip:.4f}", failures)


def test_acceptance_3_determinant_consistency():
    failures = []
    eigs = m20_cm()
    dets = np.prod(eigs, axis=1)
    detected = detected_mask(eigs)
    mismatch = np.flatnonzero((dets < 0) != detected)
    if mismatch.size:
        failures.append(
            f"determinant sign disagrees with the eigenvalue test at t={T_GRID[mismatch[0]]:.4f}"
        )
    _finish(3, "determinant negative exactly on the detected window", failures)


def test_acceptance_4_duan_simon_equivalence():
    failures = []
    cm, ds = detected_mask(m20_cm()), detected_mask(m20_ds())
    if not np.array_equal(cm, ds):
        failures.append(f"windows differ at t={T_GRID[np.flatnonzero(cm != ds)[0]]:.4f}")
    cm_last, ds_last = np.flatnonzero(cm)[-1], np.flatnonzero(ds)[-1]
    if cm_last != ds_last:
        failures.append(f"flip indices differ: cm {cm_last}, ds {ds_last}")
    _finish(4, f"quadrature criterion flips at the same grid point (index {cm_last})", failures)


def test_acceptance_4_grid_route():
    failures = []
    cm_eigs, ds_eigs, _, _ = m20_grid()
    cm, ds = detected_mask(cm_eigs), detected_mask(ds_eigs)
    if not np.array_equal(cm, ds):
        failures.append(f"windows differ at t={T_GRID[np.flatnonzero(cm != ds)[0]]:.4f}")
    cm_last, ds_last = np.flatnonzero(cm)[-1], np.flatnonzero(ds)[-1]
    if cm_last != ds_last:
        failures.append(f"flip indices differ: cm {cm_last}, ds {ds_last}")
    _finish(4, f"grid route: quadrature block flips at the same grid point (index {cm_last})",
            failures)


def test_acceptance_5_basis_independence():
    failures = []
    base = m20_cm()
    rotated, rotated_ds = m20_rotated()
    worst = float(np.abs(base - rotated).max())
    if worst > 1e-9:
        failures.append(f"rotated spectrum deviates by {worst:.3e} > 1e-9")
    cm = detected_mask(base)
    rds = detected_mask(rotated_ds)
    if not np.all(cm[rds]):
        failures.append("rotated quadratures detect outside the 6-operator window")
    if not rds.sum() < cm.sum():
        failures.append(
            f"rotated quadrature window ({rds.sum()} points) is not strictly smaller "
            f"than the 6-operator window ({cm.sum()} points)"
        )
    _finish(
        5,
        f"spectra invariant to {worst:.1e}; rotated quadratures detect "
        f"{rds.sum()}/{cm.sum()} points",
        failures,
    )


def test_acceptance_5_grid_route():
    failures = []
    base, _, rotated, rotated_ds = m20_grid()
    worst = float(np.abs(base - rotated).max())
    if worst > 1e-9:
        failures.append(f"rotated spectrum deviates by {worst:.3e} > 1e-9")
    cm = detected_mask(base)
    rds = detected_mask(rotated_ds)
    if not np.all(cm[rds]):
        failures.append("rotated quadratures detect outside the 6-operator window")
    if not rds.sum() < cm.sum():
        failures.append(
            f"rotated quadrature window ({rds.sum()} points) is not strictly smaller "
            f"than the 6-operator window ({cm.sum()} points)"
        )
    _finish(
        5,
        f"grid route: spectra invariant to {worst:.1e}; rotated quadratures detect "
        f"{rds.sum()}/{cm.sum()} points",
        failures,
    )


def test_acceptance_6_containment_vs_ppt():
    failures = []
    m = 2
    evaluator = CriterionEvaluator(collective_spin_set(m))
    mus = np.linspace(0.0, 1.0, 101)
    ts = np.linspace(0.0, 0.5, 51)
    states = [spin_ensemble_state(m, t) for t in ts]
    cm_detected, ppt_detected = [], []
    for mu in mus:
        for psi in states:
            rho = werner_mix(psi, mu)
            cm_detected.append(
                np.linalg.eigvalsh(evaluator.matrix(rho))[0] < -DETECT_TOL
            )
            ppt_detected.append(ppt_min_eigenvalue(rho) < -1e-10)
    cm_detected = np.array(cm_detected)
    ppt_detected = np.array(ppt_detected)
    if not np.all(ppt_detected[cm_detected]):
        failures.append("a detected point has a positive partial transpose")
    if not (ppt_detected & ~cm_detected).any():
        failures.append("containment is not strict")
    _finish(
        6,
        f"M=2 grid: {cm_detected.sum()} detected points all NPT, "
        f"PPT region larger by {(ppt_detected & ~cm_detected).sum()} points",
        failures,
    )


def test_acceptance_6_grid_route():
    failures = []
    m = 2
    mus = np.linspace(0.0, 1.0, 101)
    blocks = _grid_blocks(m, np.linspace(0.0, 0.5, 51))
    cm_detected = detected_mask(np.linalg.eigvalsh(
        _grid_matrices(collective_spin_set(m), mus, blocks)))
    ppt = PptGrid()
    for block in blocks:
        ppt.add(block)
    ppt_detected = ppt.min_eigenvalues(mus).ravel() < -1e-10
    if not np.all(ppt_detected[cm_detected]):
        failures.append("a detected point has a positive partial transpose")
    if not (ppt_detected & ~cm_detected).any():
        failures.append("containment is not strict")
    _finish(
        6,
        f"grid route: M=2 grid: {cm_detected.sum()} detected points all NPT, "
        f"PPT region larger by {(ppt_detected & ~cm_detected).sum()} points",
        failures,
    )


@pytest.mark.slow
def test_acceptance_7_witness_containment():
    failures = []
    start = time.perf_counter()
    m = 2
    params = AnnealParams(t0=0.15, decay=0.95, sweeps=80)
    evaluator = CriterionEvaluator(collective_spin_set(m))
    mus = [0.7, 0.8, 0.9, 1.0]
    ts = [0.1, 0.2, 0.3, 0.45]
    cm_grid, ew_grid = {}, {}
    for i_mu, mu in enumerate(mus):
        for i_t, t in enumerate(ts):
            rho = werner_mix(spin_ensemble_state(m, t), mu)
            cm_grid[mu, t] = np.linalg.eigvalsh(evaluator.matrix(rho))[0] < -DETECT_TOL
            seed = int(np.random.SeedSequence([42, i_mu * len(ts) + i_t]).generate_state(1)[0])
            result = witness_optimize(rho, m, params, seed=seed)
            if result.feasibility_residual > 1e-6:
                failures.append(f"reported residual {result.feasibility_residual:.1e} at {(mu, t)}")
            ew_grid[mu, t] = result.min_expectation < -1e-6
    elapsed = time.perf_counter() - start

    violations = [pt for pt in ew_grid if ew_grid[pt] and not cm_grid[pt]]
    if violations:
        failures.append(f"witness detects outside the covariance region at {violations}")
    if not any(ew_grid.values()):
        failures.append("witness never detects; containment would be vacuous")
    boundary_mu = min(mu for mu, t in cm_grid if cm_grid[mu, t])
    missed = [
        (mu, t) for (mu, t) in cm_grid
        if mu == boundary_mu and cm_grid[mu, t] and not ew_grid[mu, t]
    ]
    if not missed:
        failures.append(f"witness misses nothing at boundary mu={boundary_mu}")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    _finish(
        7,
        f"witness detects {sum(ew_grid.values())}/16 points, all inside the covariance "
        f"region; misses {len(missed)} boundary points at mu={boundary_mu} ({elapsed:.0f}s)",
        failures,
    )


def test_acceptance_8_disentangling_point():
    failures = []
    for m in (2, 5, 10):
        rho = werner_mix(spin_ensemble_state(m, math.pi / 2), 1.0)
        crit_min = float(np.linalg.eigvalsh(criterion_matrix(rho, collective_spin_set(m)))[0])
        ppt_min = ppt_min_eigenvalue(rho)
        if crit_min < -1e-9:
            failures.append(f"M={m}: criterion matrix minimum {crit_min:.2e} < -1e-9")
        if ppt_min < -1e-9:
            failures.append(f"M={m}: partial transpose minimum {ppt_min:.2e} < -1e-9")
    _finish(8, "state at t=pi/2 is undetected for M in {2, 5, 10}", failures)


def test_acceptance_9_property_battery():
    failures = []
    start = time.perf_counter()
    results = run_property_battery(trials=1000, max_n=8, seed=20260810)
    elapsed = time.perf_counter() - start
    for r in results:
        if not r.passed:
            failures.append(f"{r.name}: {r.detail}")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 120s")
    _finish(9, f"{len(results)} property checks over 1000 trials in {elapsed:.0f}s", failures)


def test_acceptance_10_data_round_trip(tmp_path):
    failures = []
    rng = np.random.default_rng(77)
    sets = {m: collective_spin_set(m) for m in (2, 3, 4)}
    for i in range(50):
        m = int(rng.choice([2, 3, 4]))
        mu = float(rng.uniform())
        t = float(rng.uniform(0.0, 0.6))
        rho = werner_mix(spin_ensemble_state(m, t), mu)
        data = correlation_data_from_state(rho, sets[m])
        path = tmp_path / f"point_{i}.json"
        path.write_text(json.dumps(data.to_dict()))
        restored = CorrelationData.from_dict(json.loads(path.read_text()))
        via_file = detect(criterion_matrix_from_data(restored), DETECT_TOL)
        in_memory = detect(criterion_matrix(rho, sets[m]), DETECT_TOL)
        if via_file.verdict != in_memory.verdict:
            failures.append(f"verdict mismatch at m={m}, mu={mu:.3f}, t={t:.3f}")
    _finish(10, "50 exported correlation records reproduce the in-memory verdicts", failures)
