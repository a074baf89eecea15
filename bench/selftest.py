"""Self-test of the correctness checks: each checker must pass the genuine
CLI output and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs one round of every workload (about a minute), then feeds the checkers
the genuine outputs and one corruption per check.  Exits 0 when every
genuine output passes and every corruption is rejected by the check it
targets.
"""

from __future__ import annotations

import shutil
import sys
import time

import run  # sets the BLAS thread variables before numpy loads

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # the benchmark seed of the self-test's runs and checks


def copy_table(table: dict) -> dict:
    return {k: (list(v) if k == "#" else v.copy()) for k, v in table.items()}


def _first(mask) -> int:
    return int(np.flatnonzero(mask)[0])


def sweep_corruptions(seed: int):
    def in_window(t):
        return _first(t["cm_verdict"] == checks.ENTANGLED)

    def flip_eig(col):
        def f(s, r):
            s[col][in_window(s)] *= -1
        return f

    def detect_late(s, r):
        i = _first(s["t"] > 0.3)
        s["cm_verdict"][i] = checks.ENTANGLED
        s["cm_eig_1"][i] = -1.0

    def stretch_grid(s, r):
        s["t"] *= 1.2

    def det_sign(s, r):
        s["cm_det"][in_window(s)] *= -1

    def break_interlacing(s, r):
        i = in_window(s)
        scale = np.abs(checks._eigs(s)[i]).max()
        s["ds_min_eig"][i] = (s["cm_eig_1"][i] - 1e-6 * scale) / (2 * checks.M_SWEEP)

    def rotate_shift(s, r):
        r["cm_eig_3"][5] += 1e-8

    def scratch_shift(s, r):
        detected = s["cm_verdict"] == checks.ENTANGLED
        i = checks.scratch_sample_rows(detected, seed)[-1]
        scale = np.abs(checks._eigs(s)[i]).max()
        for table in (s, r):
            table["cm_eig_4"][i] += 1e-7 * scale

    return [
        ("sign of cm_eig_1 flipped in the window", flip_eig("cm_eig_1"), "verdict"),
        ("sign of cm_eig_2 flipped in the window", flip_eig("cm_eig_2"), "window"),
        ("a detection after the window closes", detect_late, "window"),
        ("t grid stretched by 1.2", stretch_grid, "window"),
        ("sign of cm_det flipped in the window", det_sign, "determinant"),
        ("ds_min_eig pushed below cm_eig_1 / 2M", break_interlacing, "interlacing"),
        ("rotated cm_eig_3 shifted by 1e-8", rotate_shift, "rotation"),
        ("cm_eig_4 shifted by 1e-7 ||C|| on a sampled row", scratch_shift, "scratch"),
    ]


def regions_corruptions():
    def ppt_shift(t):
        t["ppt_min_eig"][len(t["mu"]) // 2] += 1e-6

    def detect_at_mu0(t):
        i = _first(t["mu"] == 0.0)
        t["cm_verdict"][i] = checks.ENTANGLED
        t["cm_eig_1"][i] = -1e-3

    return [
        ("one ppt_min_eig shifted by 1e-6", ppt_shift, "ppt"),
        ("a detection at mu = 0", detect_at_mu0, "containment"),
    ]


def witness_corruptions():
    def set_value(col, value=None, delta=0.0):
        def f(t):
            t[col][0] = value if value is not None else t[col][0] + delta
        return f

    return [
        ("iterations 1199", set_value("iterations", 1199.0), "iterations"),
        ("feasibility residual 1e-5", set_value("feasibility_residual", 1e-5), "residual"),
        ("c_00 shifted by 1e-6", set_value("c_00", delta=1e-6), "trace"),
        ("c_11 shifted by 1e-6", set_value("c_11", delta=1e-6), "expectation"),
        ("c_33 set to -1", set_value("c_33", -1.0), "product"),
    ]


def battery_corruptions():
    return [
        ("one property reported FAIL", lambda s: s.replace("[PASS]", "[FAIL]", 1), "battery"),
        ("trial count 999", lambda s: s.replace("over 1000 trials", "over 999 trials"), "battery"),
        ("a property missing", lambda s: "\n".join(s.splitlines()[1:]), "battery"),
    ]


def rejected(failures: list[str], tag: str) -> bool:
    return any(f.startswith(tag + ":") for f in failures)


def main() -> int:
    ok = True

    def report(workload, what, failures, tag):
        nonlocal ok
        good = rejected(failures, tag) if tag else not failures
        ok &= good
        verdict = ("REJECTED" if good else "MISSED") if tag else ("PASSED" if good else "FAILED")
        detail = "; ".join(failures) if failures else "no failures"
        print(f"[{verdict}] {workload}: {what} -> {detail}")

    outputs = {}
    for name in workloads.SETUP_REPEATS:
        outdir = run.OUT / f"selftest-{name}"
        outdir.mkdir(parents=True, exist_ok=True)
        result = run.run_child(["run", name, str(SEED), "0", "0", str(outdir)],
                               deadline=time.monotonic() + 900)
        outputs[name] = (outdir, result["calls"])

    # the whole-run path: every call's output is checked, whatever its exit code
    for name, (outdir, calls) in outputs.items():
        report(name, "genuine run", run.check_outputs(name, outdir, calls, SEED), None)
    outdir, calls = outputs["battery"]
    failed = [dict(calls[0], code=3, stdout=calls[0]["stdout"].replace("[PASS]", "[FAIL]", 1))]
    report("battery", "a call that printed FAIL and exited with code 3",
           run.check_outputs("battery", outdir, failed, SEED), "battery")
    outdir, calls = outputs["regions-m20"]
    report("regions-m20", "a call that exited with code 1",
           run.check_outputs("regions-m20", outdir, [dict(calls[0], code=1)], SEED), "exit")
    outdir, calls = outputs["sweep-m20"]
    stale = outdir.parent / f"{outdir.name}-missing"
    shutil.rmtree(stale, ignore_errors=True)
    shutil.copytree(outdir, stale)
    (stale / "rotated.csv").unlink()
    report("sweep-m20", "rotated.csv not written",
           run.check_outputs("sweep-m20", stale, calls, SEED), "missing")

    sweep = checks.read_table(outdir / "sweep.csv")
    rotated = checks.read_table(outdir / "rotated.csv")
    report("sweep-m20", "genuine output", checks.check_sweep(sweep, rotated, SEED), None)
    for what, corrupt, tag in sweep_corruptions(SEED):
        s, r = copy_table(sweep), copy_table(rotated)
        corrupt(s, r)
        report("sweep-m20", what, checks.check_sweep(s, r, SEED), tag)

    outdir, calls = outputs["regions-m20"]
    regions = checks.read_table(outdir / "regions.csv")
    grid = (workloads.REGIONS_MU_STEPS, workloads.REGIONS_T_STEPS, workloads.REGIONS_T_MAX)
    report("regions-m20", "genuine output", checks.check_regions(regions, *grid), None)
    for what, corrupt, tag in regions_corruptions():
        t = copy_table(regions)
        corrupt(t)
        report("regions-m20", what, checks.check_regions(t, *grid), tag)

    outdir, calls = outputs["witness-m2"]
    witness = checks.read_table(outdir / f"{calls[0]['label']}.csv")
    report("witness-m2", "genuine output", checks.check_witness(witness, SEED), None)
    for what, corrupt, tag in witness_corruptions():
        t = copy_table(witness)
        corrupt(t)
        report("witness-m2", what, checks.check_witness(t, SEED), tag)

    _, calls = outputs["battery"]
    stdout = calls[0]["stdout"]
    trials = workloads.BATTERY_TRIALS
    report("battery", "genuine output", checks.check_battery(stdout, trials), None)
    for what, corrupt, tag in battery_corruptions():
        report("battery", what, checks.check_battery(corrupt(stdout), trials), tag)

    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
