#!/usr/bin/env bash
# Regenerate the CSV curve data for all bundled experiments.
# Usage: scripts/run_experiments.sh [output-dir]   (default: results/)
# Each command's wall time goes to stderr; the outputs do not carry it.
set -euo pipefail

OUT=${1:-results}
mkdir -p "$OUT"

# the amplitude-route columns sum their BLAS products in another order when
# threaded, so the bytes depend on the thread count: one thread unless the
# caller chose otherwise
export OPENBLAS_NUM_THREADS=${OPENBLAS_NUM_THREADS:-1}
export OMP_NUM_THREADS=${OMP_NUM_THREADS:-1}
export MKL_NUM_THREADS=${MKL_NUM_THREADS:-1}

# without an installed console script, run the package from this checkout
if ! command -v entcov >/dev/null 2>&1; then
    SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/src"
    export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
    entcov() { python3 -m entcov.cli "$@"; }
fi

# wall time of each command, on stderr only, so the outputs stay unchanged
timed() {
    local start=${EPOCHREALTIME/[.,]/}
    "$@"
    local us=$(( ${EPOCHREALTIME/[.,]/} - start ))
    printf '[%d.%03d s] %s\n' $(( us / 1000000 )) $(( us % 1000000 / 1000 )) "$*" >&2
}

R2=0.7071067811865476  # 1/sqrt(2)

# two-qubit Werner-Bell eigenvalue sweep; detection sets in at mu = 1/3
timed entcov werner-bell --mu-steps 201 --out "$OUT/werner_bell.csv"

# pure-state spin ensembles, M = 20: eigenvalues, determinant, quadrature
# comparison; the detection window closes near t = 0.13
timed entcov spin-ensemble --m 20 --t-steps 200 --criteria cm,ds \
    --out "$OUT/spin_m20_cm_ds.csv"

# same sweep with both spin triples rotated 45 degrees about z: the
# 6-operator spectra are unchanged, the rotated quadratures detect less
timed entcov spin-ensemble --m 20 --t-steps 200 --criteria cm,ds \
    --rotate $R2 $R2 0 -$R2 $R2 0 0 0 1 \
    --out "$OUT/spin_m20_rotated.csv"

# mixed-state region maps: covariance criterion vs partial-transpose
# spectrum, plus the annealed witness on the small system
timed entcov spin-ensemble --m 2 --mu-min 0 --mu-max 1 --mu-steps 6 \
    --t-steps 9 --t-max 0.8 --criteria cm,ppt,ew --seed 7 --jobs 2 \
    --ew-sweeps 80 --ew-t0 0.15 --ew-decay 0.95 \
    --out "$OUT/spin_m2_regions.csv"
timed entcov spin-ensemble --m 20 --mu-min 0 --mu-max 1 --mu-steps 11 \
    --t-steps 31 --t-max 0.3 --criteria cm,ppt \
    --out "$OUT/spin_m20_regions.csv"

# cost follows the operator count N, not the dimension D: at M = 200
# (D = 40401) this runs in seconds and forms no D x D array, since the
# criterion matrices come from the amplitude matrix and the ppt column
# from its two largest Schmidt coefficients
timed entcov spin-ensemble --m 200 --t-steps 31 --t-max 0.3 --criteria cm,ds,ppt \
    --out "$OUT/spin_m200_cm_ds_ppt.csv"

# randomized property battery; its report is kept for compare_outputs.py
timed entcov uncertainty-suite --trials 1000 --max-n 8 --seed 1 | tee "$OUT/uncertainty_suite.txt"

# one documented witness run, and the same point from annealer seed 1, so
# compare_outputs.py covers both seeds the witness benchmark runs
timed entcov witness --m 2 --mu 1.0 --t 0.3 --seed 0 --sweeps 80 --t0 0.15 \
    --decay 0.95 --out "$OUT/witness_point.csv"
timed entcov witness --m 2 --mu 1.0 --t 0.3 --seed 1 --sweeps 80 --t0 0.15 \
    --decay 0.95 --out "$OUT/witness_point_seed1.csv"

# the data route: the M = 20 sextet record at t = 0.05, mu = 1, as an
# experiment would supply it, and the from-data report on it, kept for
# compare_outputs.py
timed python3 -c '
import json, sys
from entcov import collective_spin_set, correlation_data_from_state, spin_ensemble_state
data = correlation_data_from_state(spin_ensemble_state(20, 0.05), collective_spin_set(20))
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(data.to_dict(), fh)
' "$OUT/correlation_m20.json"
timed entcov from-data --input "$OUT/correlation_m20.json" | tee "$OUT/from_data_m20.txt"

echo "all experiment data written to $OUT/"
