"""Re-measure the library-level rows of the ROADMAP grounding table as medians.

    python3 bench/grounding.py

Runs in one process with ``src`` on the path and BLAS pinned to one thread.
Each row is the median of REPEATS timings (WITNESS_REPEATS for the annealer,
four times REPEATS for the per-state rows), after one untimed warm-up call.
The CLI rows of that table are the sweep-m20 and regions-m20 workloads of
bench/run.py, and the test-suite rows come from a pytest --durations run.
"""

from __future__ import annotations

import statistics
import sys
import time

import run  # sets the BLAS thread variables and the path before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import entcov  # noqa: E402

M = 20
REPEATS = 5
WITNESS_REPEATS = 3


def median_time(fn, repeats: int) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of repeated timings in seconds."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def main() -> int:
    spin = entcov.collective_spin_set(M)
    evaluator = entcov.CriterionEvaluator(spin)
    psi = entcov.spin_ensemble_state(M, 0.05)
    rho = entcov.werner_mix(psi, 1.0)
    mats = spin.matrices()

    def moments_from_vector():
        v = np.array([x @ psi.amplitudes for x in mats])
        return v.conj() @ v.T

    rho2 = entcov.werner_mix(entcov.spin_ensemble_state(2, 0.3), 1.0)
    params = entcov.AnnealParams(t0=0.15, decay=0.95, sweeps=80)

    rows = [
        ("CriterionEvaluator(collective_spin_set(20)) build",
         lambda: entcov.CriterionEvaluator(spin), REPEATS),
        ("collective_spin_set(20)", lambda: entcov.collective_spin_set(M), REPEATS),
        ("evaluator.matrix(rho), M=20", lambda: evaluator.matrix(rho), 4 * REPEATS),
        ("same moments from the state vector", moments_from_vector, 4 * REPEATS),
        ("werner_mix, M=20", lambda: entcov.werner_mix(psi, 0.5), 4 * REPEATS),
        ("correlation_data_from_state, M=20",
         lambda: entcov.correlation_data_from_state(rho, spin), REPEATS),
        ("criterion_matrix(rho, obs), M=20 (fresh evaluator)",
         lambda: entcov.criterion_matrix(rho, spin), REPEATS),
        ("duan_simon_report, M=20 (fresh evaluator)",
         lambda: entcov.duan_simon_report(rho, M), REPEATS),
        ("ppt_min_eigenvalue, M=20", lambda: entcov.ppt_min_eigenvalue(rho), REPEATS),
        ("witness_optimize (m=2, 80 sweeps, seed 0)",
         lambda: entcov.witness_optimize(rho2, 2, params, 0), WITNESS_REPEATS),
    ]
    print("| measurement | median | quartiles | repeats |")
    print("|---|---|---|---|")
    for label, fn, repeats in rows:
        med, q1, q3 = median_time(fn, repeats)
        print(f"| {label} | {med * 1e3:.2f} ms | {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms | {repeats} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
