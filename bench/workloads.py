"""The four benchmark workloads: the CLI calls of one round, the items each
call completes, and the fixed inputs that set-up builds through the public API.

This module imports nothing from ``entcov`` at load time, so the parent
process can read the workload table without importing the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

R2 = "0.7071067811865476"  # 1/sqrt(2), as in scripts/run_experiments.sh
ROTATE_45Z = (R2, R2, "0", "-" + R2, R2, "0", "0", "0", "1")

SWEEP_T_STEPS = 200
# The run_experiments.sh map is 11 x 31 points, one 25-30 s call; a 35-45 s
# run then holds one or two such calls, and which of the two it was moved
# items_per_s by more than its bound.  Six mu values (0, 0.2, ..., 1) at the
# same t resolution make 12-16 s rounds with the same per-point work.
REGIONS_MU_STEPS = 6
REGIONS_T_STEPS = 31
REGIONS_T_MAX = 0.3
WITNESS_SWEEPS = 80
WITNESS_PROPOSALS_PER_SWEEP = 15  # every free coefficient of the 4x4 table
# Annealer seeds of every round: the documented seed 0 and one restart.  They
# do not follow the run seed, because one annealer run's cost depends on its
# seed (363 to 552 infeasible candidates, 9 to 16 s), which would add to the
# run-to-run spread of items_per_s.
WITNESS_SEEDS = (0, 1)
BATTERY_TRIALS = 1000
BATTERY_MAX_N = 8


@dataclass(frozen=True)
class Call:
    """One entcov.cli.main invocation, the items it completes and the CSV
    file it writes, if any."""

    label: str
    argv: tuple[str, ...]
    items: int
    out: Path | None = None


# set-up samples per run, half before and half after the timed loop;
# import-only set-ups take about 0.1 s, so they get the most
SETUP_REPEATS = {"sweep-m20": 8, "regions-m20": 12, "witness-m2": 20, "battery": 20}


def warm_up_argv(name: str, outdir: Path) -> tuple[str, ...]:
    """One small untimed call before the timed loop.

    The first CLI call in a fresh interpreter ran about a second slower than
    the next ones (regions-m20); the warm-up takes that cost instead of
    whichever timed round comes first.
    """
    out = outdir / "warm-up.csv"
    if name == "sweep-m20":
        argv = ("spin-ensemble", "--m", "20", "--t-steps", "2", "--criteria", "cm,ds",
                "--out", str(out))
    elif name == "regions-m20":
        argv = ("spin-ensemble", "--m", "20", "--mu-min", "0", "--mu-max", "1",
                "--mu-steps", "2", "--t-steps", "2", "--criteria", "cm,ppt", "--out", str(out))
    elif name == "witness-m2":
        argv = ("witness", "--m", "2", "--mu", "1.0", "--t", "0.3", "--sweeps", "1",
                "--out", str(out))
    elif name == "battery":
        argv = ("uncertainty-suite", "--trials", "10", "--max-n", str(BATTERY_MAX_N))
    else:
        raise KeyError(name)
    return argv


def round_calls(name: str, seed: int, round_index: int, outdir: Path) -> list[Call]:
    """The CLI calls of one round."""
    if name == "sweep-m20":
        base = ("spin-ensemble", "--m", "20", "--t-steps", str(SWEEP_T_STEPS),
                "--criteria", "cm,ds")
        sweep, rotated = outdir / "sweep.csv", outdir / "rotated.csv"
        return [
            Call("sweep", base + ("--out", str(sweep)), SWEEP_T_STEPS, sweep),
            Call("rotated", base + ("--rotate", *ROTATE_45Z, "--out", str(rotated)),
                 SWEEP_T_STEPS, rotated),
        ]
    if name == "regions-m20":
        out = outdir / "regions.csv"
        argv = ("spin-ensemble", "--m", "20", "--mu-min", "0", "--mu-max", "1",
                "--mu-steps", str(REGIONS_MU_STEPS), "--t-steps", str(REGIONS_T_STEPS),
                "--t-max", str(REGIONS_T_MAX), "--criteria", "cm,ppt", "--out", str(out))
        return [Call("regions", argv, REGIONS_MU_STEPS * REGIONS_T_STEPS, out)]
    if name == "witness-m2":
        calls = []
        for s in WITNESS_SEEDS:
            out = outdir / f"witness-{s}.csv"
            argv = ("witness", "--m", "2", "--mu", "1.0", "--t", "0.3", "--seed", str(s),
                    "--sweeps", str(WITNESS_SWEEPS), "--t0", "0.15", "--decay", "0.95",
                    "--out", str(out))
            calls.append(Call(f"witness-{s}", argv,
                              WITNESS_PROPOSALS_PER_SWEEP * WITNESS_SWEEPS, out))
        return calls
    if name == "battery":
        s = seed * 1000 + round_index  # a new battery seed in every round
        argv = ("uncertainty-suite", "--trials", str(BATTERY_TRIALS),
                "--max-n", str(BATTERY_MAX_N), "--seed", str(s))
        return [Call(f"battery-{s}", argv, BATTERY_TRIALS)]
    raise KeyError(name)


def build_fixed_inputs(name: str):
    """Build the workload's fixed inputs through the public API.

    These are what the CLI builds before its first grid point: observable
    sets, rotations and criterion evaluators.  The witness and the battery
    have none, so their set-up is the import alone.
    """
    import numpy as np

    import entcov

    if name == "sweep-m20":
        rotation = np.array([float(x) for x in ROTATE_45Z]).reshape(3, 3)
        built = []
        for rotate in (False, True):
            spin = entcov.collective_spin_set(20)
            if rotate:
                spin = entcov.rotate_so3(spin, rotation)
            built.append(entcov.CriterionEvaluator(spin))
            built.append(entcov.CriterionEvaluator(entcov.hp_quadrature_set(20, spin_set=spin)))
        return built
    if name == "regions-m20":
        return [entcov.CriterionEvaluator(entcov.collective_spin_set(20))]
    if name in ("witness-m2", "battery"):
        return []
    raise KeyError(name)
