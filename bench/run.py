"""entcov benchmark: four closed-loop CLI workloads, end-to-end metrics and
traced per-layer metrics.

    python3 bench/run.py --workload sweep-m20 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
workload calls ``entcov.cli.main`` in a fresh child interpreter with ``src``
on its path and BLAS pinned to one thread.  With ``--trace 0`` the result
carries the end-to-end metrics (items_per_s, setup_s, peak_rss_mb); with
``--trace 1`` a separate traced run gives the per-layer metrics.  The outputs
are checked after the timed section.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every child

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run bench/child.py to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(name: str, outdir: Path, calls: list[dict], seed: int) -> list[str]:
    """Correctness checks on every call's output, whatever its exit code.

    A call that failed or raised is a failure too, and so is an expected
    output file that is missing; the child deletes each call's file before
    the call, so a file left by an earlier round is never checked.
    """
    import checks

    failures = [f"exit: {c['label']} (round {c['round']}) exited with code {c['code']}"
                for c in calls if c["code"] != 0]

    def table(file_name: str):
        path = outdir / file_name
        if not path.is_file():
            failures.append(f"missing: {file_name} was not written")
            return None
        return checks.read_table(path)

    if name == "sweep-m20":
        sweep, rotated = table("sweep.csv"), table("rotated.csv")
        if sweep is not None and rotated is not None:
            failures += checks.check_sweep(sweep, rotated, seed)
    elif name == "regions-m20":
        regions = table("regions.csv")
        if regions is not None:
            failures += checks.check_regions(regions, workloads.REGIONS_MU_STEPS,
                                             workloads.REGIONS_T_STEPS, workloads.REGIONS_T_MAX)
    elif name == "witness-m2":
        for label in sorted({c["label"] for c in calls}):
            witness = table(f"{label}.csv")
            if witness is not None:
                failures += checks.check_witness(witness, seed)
            if len({c["stdout"] for c in calls if c["label"] == label}) > 1:
                failures.append(f"determinism: {label} gave different results in two rounds")
    elif name == "battery":
        for c in calls:
            failures += checks.check_battery(c["stdout"], workloads.BATTERY_TRIALS)
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    outdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    def set_up(count: int) -> list[float]:
        return [run_child(["setup", name], deadline)["setup_s"] for _ in range(count)]

    # set-up is sampled on both sides of the timed loop, so its median spans
    # the run rather than one moment of a machine whose speed drifts
    repeats = 0 if trace else workloads.SETUP_REPEATS[name]
    setup_samples = set_up(repeats // 2)
    result = run_child(["run", name, str(seed), str(seconds), str(int(trace)), str(outdir)],
                       deadline)
    setup_samples += set_up(repeats - repeats // 2)
    calls = result["calls"]
    ok = [c for c in calls if c["code"] == 0]
    items_per_s = sum(c["items"] for c in ok) / sum(c["seconds"] for c in calls)
    failures = check_outputs(name, outdir, calls, seed)

    if trace:
        metrics = layer_metrics(result["layers"])
        metrics["traced.items_per_s"] = {"value": items_per_s, "unit": "items/s"}
        for absent in result["absent"]:
            print(f"{name}: layer {absent} is absent from the package", file=sys.stderr)
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    (outdir / "result.json").write_text(json.dumps(
        {"calls": [{k: v for k, v in c.items() if k != "stdout"} for c in calls],
         "setup_samples": setup_samples, "failures": failures}, indent=1))
    for failure in failures:
        print(f"{name}: check failed: {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": len(calls),
            "failed": len(calls) - len(ok), "metrics": metrics}


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics named <module>.<function>.<stat>."""
    metrics = {}
    for name, stats in layers.items():
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s"}
        if "feasible" in stats:
            metrics[f"{name}.feasible"] = {"value": stats["feasible"], "unit": "count"}
            ratio = stats["feasible"] / stats["calls"] if stats["calls"] else 0.0
            metrics[f"{name}.useful_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SETUP_REPEATS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "entcov" / "cli.py").is_file():
        print(f"no entcov sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = list(workloads.SETUP_REPEATS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
