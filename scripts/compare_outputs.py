#!/usr/bin/env python3
"""Compare two directories of entcov outputs, file by file.

Usage: scripts/compare_outputs.py OLD_DIR NEW_DIR

For each CSV found in either directory this reports whether the data rows
are byte-identical, whether the config lines differ in anything but `out`,
whether every verdict cell and every flip comment is identical, and, per
numeric column that differs, the largest absolute difference together with its size
relative to the largest |eigenvalue| of that row (the largest |cell| over the
columns whose name contains "eig"); a determinant column is measured
relative to its own cell instead, a product of eigenvalues having another
scale, and so is every column of a file without eigenvalue columns.  For
each text file (the uncertainty-suite report) it lists every line that
differs.  For each JSON correlation record it reports whether the bytes
are identical and how far the means, V and Omega entries move relative to
the record scale max(max|V|, max|Omega|) of the two records.  Exits 1 if
a file is missing from one side, a CSV config line differs in anything
but `out`, a CSV verdict, flip comment, header or row count differs, a
numeric column other than a determinant moves by more than REL_TOL
(1e-12) of its scale, a text file's line count or a line's [PASS]/[FAIL]
tag differs, or a record's labels, partition or pt_parity differ, a
field is missing or changes shape, or an entry of its means, V or Omega
moves by more than REL_TOL of the record scale; 0 otherwise.  A
determinant may move further: one built from analytically zero
eigenvalues is rounding noise.  Uses numpy and the standard library only,
so it reads outputs of any version of the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

CONFIG_PREFIX = "# config: "
REL_TOL = 1e-12  # largest move of a non-determinant cell, relative to its scale
CHECK_TAGS = ("[PASS]", "[FAIL]")


def parse(path: Path):
    """Config dict, flip comments, column names and data rows of one CSV."""
    config, comments, data = None, [], []
    for line in path.read_text().splitlines():
        if line.startswith(CONFIG_PREFIX):
            config = json.loads(line[len(CONFIG_PREFIX):])
        elif line.startswith("# entcov "):
            continue
        elif line.startswith("# "):
            comments.append(line[2:])
        else:
            data.append(line)
    header = data[0].split(",") if data else []
    rows = [line.split(",") for line in data[1:]]
    return config, comments, header, data[1:], rows


def _numeric(rows, j):
    try:
        return np.array([float(r[j]) for r in rows])
    except ValueError:
        return None


def _settings(config) -> dict:
    return {k: v for k, v in (config or {}).items() if k != "out"}


def compare(old: Path, new: Path) -> bool:
    """Print the report for one file pair; True when nothing fatal differs."""
    cfg_a, com_a, head_a, lines_a, rows_a = parse(old)
    cfg_b, com_b, head_b, lines_b, rows_b = parse(new)
    config_same = _settings(cfg_a) == _settings(cfg_b)
    print(f"  data rows byte-identical: {lines_a == lines_b}")
    print(f"  config identical apart from out: {config_same}")
    if head_a != head_b or len(rows_a) != len(rows_b):
        print(f"  header or row count differs: {len(rows_a)} rows against {len(rows_b)}")
        return False
    verdict_cols = [j for j, name in enumerate(head_a)
                    if name == "verdict" or name.endswith("_verdict")]
    verdicts_same = all(ra[j] == rb[j] for ra, rb in zip(rows_a, rows_b) for j in verdict_cols)
    print(f"  verdict cells identical: {verdicts_same} ({len(verdict_cols)} columns)")
    print(f"  flip comments identical: {com_a == com_b} ({len(com_a)} against {len(com_b)})")
    eig_cols = [j for j, name in enumerate(head_a) if "eig" in name]
    scale = None
    if eig_cols and rows_a:
        scale = np.max(np.abs(np.array([[float(r[j]) for j in eig_cols] for r in rows_a])), axis=1)
    values_close = True
    for j, name in enumerate(head_a):
        if j in verdict_cols:
            continue
        a, b = _numeric(rows_a, j), _numeric(rows_b, j)
        if a is None or b is None or a.size == 0:
            continue
        diff = np.abs(a - b)
        if not np.any(diff):
            continue
        line = f"  {name}: max |diff| {diff.max():.3g} in {np.count_nonzero(diff)} rows"
        with np.errstate(divide="ignore", invalid="ignore"):
            if "det" in name or scale is None:
                rel = np.nanmax(diff / np.maximum(np.abs(a), np.abs(b)))
                line += f", max relative to the cell {rel:.3g}"
            else:
                rel = np.nanmax(diff / scale)
                line += f", max relative to the row's largest |eig| {rel:.3g}"
        if "det" not in name and not rel <= REL_TOL:
            line += f"  <- beyond {REL_TOL:g}"
            values_close = False
        print(line)
    return config_same and verdicts_same and com_a == com_b and values_close


def _tag(line: str) -> str | None:
    return next((t for t in CHECK_TAGS if line.startswith(t)), None)


def compare_text(old: Path, new: Path) -> bool:
    """List the differing lines of one text file pair; True when the line
    count and every [PASS]/[FAIL] tag agree."""
    lines_a, lines_b = old.read_text().splitlines(), new.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        print(f"  line count differs: {len(lines_a)} against {len(lines_b)}")
        return False
    changed = [(i, a, b) for i, (a, b) in enumerate(zip(lines_a, lines_b), 1) if a != b]
    tags_same = all(_tag(a) == _tag(b) for _, a, b in changed)
    print(f"  lines identical: {not changed}")
    print(f"  [PASS]/[FAIL] tags identical: {tags_same}")
    for i, a, b in changed:
        print(f"  line {i}: {a}")
        print(f"  {' ' * len(f'line {i}')}  {b}")
    return tags_same


RECORD_TAGS = ("labels", "partition", "pt_parity")
RECORD_ARRAYS = ("means", "V", "Omega")


def compare_record(old: Path, new: Path) -> bool:
    """Report one correlation-record pair; True when the tags agree and no
    entry moves by more than REL_TOL of the record scale."""
    bytes_a, bytes_b = old.read_bytes(), new.read_bytes()
    print(f"  bytes identical: {bytes_a == bytes_b}")
    rec_a, rec_b = json.loads(bytes_a), json.loads(bytes_b)
    missing = [k for k in RECORD_TAGS + RECORD_ARRAYS if k not in rec_a or k not in rec_b]
    if missing:
        print(f"  fields missing: {', '.join(missing)}")
        return False
    tags_same = all(rec_a[k] == rec_b[k] for k in RECORD_TAGS)
    print(f"  labels, partition and pt_parity identical: {tags_same}")
    arrays = {k: (np.array(rec_a[k], dtype=float), np.array(rec_b[k], dtype=float))
              for k in RECORD_ARRAYS}
    if any(a.shape != b.shape for a, b in arrays.values()):
        print("  means, V or Omega changes shape")
        return False
    scale = max(np.abs(x).max(initial=0.0) for k in ("V", "Omega") for x in arrays[k])
    values_close = True
    for name, (a, b) in arrays.items():
        diff = np.abs(a - b)
        if not np.any(diff):
            continue
        line = (f"  {name}: max |diff| {diff.max():.3g} in {np.count_nonzero(diff)} entries, "
                f"relative to the record scale {diff.max() / scale if scale else np.inf:.3g}")
        if not diff.max() <= REL_TOL * scale:
            line += f"  <- beyond {REL_TOL:g}"
            values_close = False
        print(line)
    return tags_same and values_close


COMPARERS = {".csv": compare, ".txt": compare_text, ".json": compare_record}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for d in (old_dir, new_dir) for suffix in COMPARERS
                    for p in d.glob(f"*{suffix}")})
    ok = bool(names)
    for name in names:
        print(name)
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"  missing from {old_dir if not old.is_file() else new_dir}")
            ok = False
            continue
        ok &= COMPARERS[old.suffix](old, new)
    print("OK" if ok else "DIFFERENT")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
