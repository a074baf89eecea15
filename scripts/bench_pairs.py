#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating pairs of runs.

Usage: scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

Pair i runs the benchmark command of CHANGE's BENCHMARK.json (bench/run.py)
once in each checkout, both with seed S + i, at the file's run_seconds and
with tracing off; the parent goes first in the even pairs and the change in
the odd ones.  For each end-to-end metric the file declares, this prints
each side's median and quartiles, the pairs the change won (ties count for
neither side, the better direction read from the file) and how far the
change's median is worse than the parent's, against the metric's bound:
"within", "EXCEEDED", or "unresolved" when the parent's quartile spread
exceeds the bound relative to its median, so that the runs cannot tell a
move of the bound's size, unless every change run beats every parent run.
It then says whether a gain may be claimed on that metric: the change won at
least nine tenths of at least ten pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.  Each
run's JSON line is kept in memory only; nothing is written under either
checkout apart from what bench/run.py itself writes.  Exits 1 if a run
fails or reports an incorrect output, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """One tracing-off benchmark run in root: its metrics, name to value."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(argv)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: seed {seed} reported an incorrect or failed call")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(metric: dict, parent: list[float], change: list[float]) -> list[str]:
    """The report lines of one end-to-end metric over the paired runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    gap = sign * (cm - pm)
    worse = max(0.0, -gap) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > metric["bound"] and not dominates:
        verdict = f"unresolved (parent IQR {spread:.1%} of its median)"
    else:
        verdict = "within" if worse <= metric["bound"] else "EXCEEDED"
    claim = (len(gains) >= MIN_PAIRS and wins >= WIN_SHARE * len(gains) and gap > p3 - p1)
    return [
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better):",
        f"  parent median {pm:.6g} (quartiles {p1:.6g}, {p3:.6g})",
        f"  change median {cm:.6g} (quartiles {c1:.6g}, {c3:.6g})",
        f"  change won {wins} of {len(gains)} pairs, lost {losses}",
        f"  median worse by {worse:.3%} of the parent's, bound {metric['bound']:.0%}: "
        + verdict,
        f"  gain claim (>= {WIN_SHARE:.0%} of >= {MIN_PAIRS} pairs won, median gap "
        f"{gap:.6g} > parent IQR {p3 - p1:.6g}): " + ("holds" if claim else "does not hold"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            try:
                runs[side].append(run_once(root, spec["command"], args.workload, seed,
                                           spec["run_seconds"]))
            except (RuntimeError, OSError, ValueError, KeyError) as exc:
                print(f"pair {i + 1}: {exc}", file=sys.stderr)
                return 1
        row = ", ".join(f"{side} {m['name']} {runs[side][-1][m['name']]:.6g}"
                        for side in ("parent", "change") for m in spec["end_to_end"])
        print(f"pair {i + 1} (seed {seed}, {order[0]} first): {row}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {spec['run_seconds']} s runs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lines = summarize(metric, [r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]])
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
