"""scripts/bench_pairs.py on two checkouts whose bench/run.py are stubs that
print fixed metrics: the order of the runs, the summary and the claim rule."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 45,
    "workloads": [{"name": "fast", "why": "stub"}],
    "end_to_end": [
        {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}

# the stub appends its side, seed and run length to one shared log, then
# prints the JSON line of bench/run.py with metrics taken from its table
STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as fh:
    fh.write("{side} " + args["--seed"] + " " + args["--seconds"] + " " + args["--trace"] + "\\n")
items, rss = {table!r}[int(args["--seed"])]
print("fast: attempted 1, failed 0, correct True")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "items_per_s": {{"value": items, "unit": "items/s"}},
    "peak_rss_mb": {{"value": rss, "unit": "MB"}}}}}}))
"""


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script()


def checkout(root: Path, side: str, log: Path, table: dict) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB.format(log=str(log), side=side, table=table))
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def run_pairs(tmp_path, capsys, parent_table, change_table, pairs):
    log = tmp_path / "calls.log"
    parent = checkout(tmp_path / "parent", "parent", log, parent_table)
    change = checkout(tmp_path / "change", "change", log, change_table)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code = bench_pairs.main([str(parent), str(change), "--workload", "fast",
                             "--pairs", str(pairs), "--seed", "1"])
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file() and p != log}
    assert after == before  # nothing under either checkout was written
    return code, log.read_text().splitlines(), capsys.readouterr().out


def test_alternating_order_same_seeds(tmp_path, capsys):
    table = {seed: (100.0, 30.0) for seed in range(1, 5)}
    code, calls, _ = run_pairs(tmp_path, capsys, table, table, 4)
    assert code == 0
    assert calls == ["parent 1 45 0", "change 1 45 0", "change 2 45 0", "parent 2 45 0",
                     "parent 3 45 0", "change 3 45 0", "change 4 45 0", "parent 4 45 0"]


def test_claim_holds_on_a_clear_gain(tmp_path, capsys):
    parent = {seed: (100.0 + seed, 30.0) for seed in range(1, 11)}
    # nine wins, one loss; the memory is a tie in every pair
    change = {seed: (130.0 if seed != 4 else 90.0, 30.0) for seed in range(1, 11)}
    code, _, out = run_pairs(tmp_path, capsys, parent, change, 10)
    assert code == 0
    items = out[out.index("items_per_s (items/s, higher is better)"):out.index("peak_rss_mb (")]
    assert "parent median 105.5 (quartiles 103.25, 107.75)" in items
    assert "change median 130 (quartiles 130, 130)" in items
    assert "change won 9 of 10 pairs, lost 1" in items
    assert "gain claim" in items and items.rstrip().endswith("holds")
    rss = out[out.index("peak_rss_mb ("):]
    assert "change won 0 of 10 pairs, lost 0" in rss
    assert "bound 10%: within" in rss
    assert rss.rstrip().endswith("does not hold")


@pytest.mark.parametrize("change_items, why", [
    # eight wins in ten: below nine tenths
    ({**{s: 130.0 for s in range(1, 11)}, 2: 90.0, 7: 90.0}, "wins"),
    # ten wins, but the median gap (1) is within the parent's IQR (4.5)
    ({s: 101.0 + s for s in range(1, 11)}, "gap"),
])
def test_claim_refused(tmp_path, capsys, change_items, why):
    parent = {seed: (100.0 + seed, 30.0) for seed in range(1, 11)}
    change = {seed: (change_items[seed], 30.0) for seed in range(1, 11)}
    code, _, out = run_pairs(tmp_path, capsys, parent, change, 10)
    assert code == 0
    items = out[out.index("items_per_s ("):out.index("peak_rss_mb (")]
    assert items.rstrip().endswith("does not hold"), why


def test_too_few_pairs_claim_nothing_and_bound_exceeded(tmp_path, capsys):
    parent = {seed: (100.0, 30.0) for seed in range(1, 4)}
    change = {seed: (200.0, 40.0) for seed in range(1, 4)}
    code, _, out = run_pairs(tmp_path, capsys, parent, change, 3)
    assert code == 0
    items = out[out.index("items_per_s ("):out.index("peak_rss_mb (")]
    assert "change won 3 of 3 pairs" in items and items.rstrip().endswith("does not hold")
    rss = out[out.index("peak_rss_mb ("):]
    assert "median worse by 33.333% of the parent's, bound 10%: EXCEEDED" in rss


def test_wide_parent_spread_is_unresolved(tmp_path, capsys):
    # the parent's memory spans 25..35 MB, an IQR of 5 on a median of 30
    # (16.7%, above the 10% bound); the change is 1 MB better in each pair
    # but not better than every parent run
    parent = {seed: (100.0, 25.0 + (seed % 5) * 2.5) for seed in range(1, 11)}
    change = {seed: (100.0, parent[seed][1] - 1.0) for seed in range(1, 11)}
    code, _, out = run_pairs(tmp_path, capsys, parent, change, 10)
    assert code == 0
    rss = out[out.index("peak_rss_mb ("):]
    assert "bound 10%: unresolved (parent IQR 16.7% of its median)" in rss
    items = out[out.index("items_per_s ("):out.index("peak_rss_mb (")]
    assert "bound 25%: within" in items


def test_wide_parent_spread_resolved_when_every_change_run_wins(tmp_path, capsys):
    # the same wide parent spread, but every change run is below every parent run
    parent = {seed: (100.0, 25.0 + (seed % 5) * 2.5) for seed in range(1, 11)}
    change = {seed: (100.0, 20.0 + seed * 0.1) for seed in range(1, 11)}
    code, _, out = run_pairs(tmp_path, capsys, parent, change, 10)
    assert code == 0
    rss = out[out.index("peak_rss_mb ("):]
    assert "bound 10%: within" in rss and "unresolved" not in rss


def test_incorrect_run_exits_1(tmp_path, capsys):
    table = {seed: (100.0, 30.0) for seed in range(1, 3)}
    log = tmp_path / "calls.log"
    parent = checkout(tmp_path / "parent", "parent", log, table)
    change = checkout(tmp_path / "change", "change", log, table)
    run = change / "bench" / "run.py"
    run.write_text(run.read_text().replace('"correct": True', '"correct": False'))
    assert bench_pairs.main([str(parent), str(change), "--workload", "fast",
                             "--pairs", "2"]) == 1
    assert "incorrect or failed" in capsys.readouterr().err
