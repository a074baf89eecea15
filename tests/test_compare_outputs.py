"""scripts/compare_outputs.py on a pair of output directories, the newer one
edited by hand: what it accepts, what it rejects and what it reports."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from entcov import collective_spin_set, correlation_data_from_state, spin_ensemble_state
from entcov.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
SUITE_REPORT = "[PASS] variance: ok\n[PASS] pair residual: ok\n"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load_script()


@pytest.fixture
def dirs(tmp_path, capsys):
    """An old directory with a werner-bell CSV, a suite report and an M = 2
    correlation record, and a byte-identical copy to edit."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    assert main(["werner-bell", "--mu-steps", "9", "--out", str(old / "wb.csv")]) == 0
    (old / "suite.txt").write_text(SUITE_REPORT)
    record = correlation_data_from_state(spin_ensemble_state(2, 0.1), collective_spin_set(2))
    (old / "record.json").write_text(json.dumps(record.to_dict()))
    shutil.copytree(old, new)
    capsys.readouterr()
    return old, new


def edit_line(path: Path, index: int, edit):
    """Replace the index-th line that is not a comment (0 is the header)."""
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    lines[data[index]] = edit(lines[data[index]])
    path.write_text("\n".join(lines) + "\n")


def run(old, new, capsys):
    code = compare_outputs.main([str(old), str(new)])
    return code, capsys.readouterr().out


def test_identical_directories(dirs, capsys):
    code, out = run(*dirs, capsys)
    assert code == 0
    assert "data rows byte-identical: True" in out and "lines identical: True" in out
    assert "bytes identical: True" in out
    assert out.splitlines()[-1] == "OK"


def test_config_tolerance_differs(dirs, capsys):
    _, new = dirs
    path = new / "wb.csv"
    path.write_text(path.read_text().replace('"tolerance": 1e-09', '"tolerance": 1e-08'))
    code, out = run(*dirs, capsys)
    assert code == 1
    assert "config identical apart from out: False" in out


def test_flipped_verdict_cell(dirs, capsys):
    _, new = dirs
    edit_line(new / "wb.csv", 1, lambda line: line.replace("UNDETECTED", "ENTANGLED"))
    code, out = run(*dirs, capsys)
    assert code == 1
    assert "verdict cells identical: False" in out


def test_one_ulp_eigenvalue_move_is_reported(dirs, capsys):
    _, new = dirs

    def nudge(line):
        cells = line.split(",")
        cells[1] = format(np.nextafter(float(cells[1]), np.inf), ".17g")
        return ",".join(cells)

    edit_line(new / "wb.csv", 3, nudge)
    code, out = run(*dirs, capsys)
    assert code == 0
    assert "data rows byte-identical: False" in out
    assert "eig_1: max |diff|" in out and "in 1 rows" in out
    assert out.splitlines()[-1] == "OK"


def test_missing_file(dirs, capsys):
    _, new = dirs
    (new / "wb.csv").unlink()
    code, out = run(*dirs, capsys)
    assert code == 1
    assert f"missing from {new}" in out


def test_pass_line_turned_fail(dirs, capsys):
    _, new = dirs
    (new / "suite.txt").write_text(SUITE_REPORT.replace("[PASS] pair", "[FAIL] pair"))
    code, out = run(*dirs, capsys)
    assert code == 1
    assert "[PASS]/[FAIL] tags identical: False" in out


def edit_record(path: Path, edit):
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))


def test_record_moved_within_tolerance(dirs, capsys):
    # one ulp of a V entry is reported, and is not fatal
    _, new = dirs

    def nudge(record):
        record["V"][0][0] = float(np.nextafter(record["V"][0][0], np.inf))

    edit_record(new / "record.json", nudge)
    code, out = run(*dirs, capsys)
    assert code == 0
    assert "bytes identical: False" in out
    assert "V: max |diff|" in out and "in 1 entries" in out
    assert out.splitlines()[-1] == "OK"


@pytest.mark.parametrize("field", ["means", "V", "Omega"])
def test_record_entry_moved_beyond_the_record_scale(dirs, capsys, field):
    _, new = dirs
    old_record = json.loads((dirs[0] / "record.json").read_text())
    scale = max(np.abs(old_record[k]).max() for k in ("V", "Omega"))

    def move(record):
        row = record[field] if field == "means" else record[field][0]
        row[1] += 1e-9 * scale

    edit_record(new / "record.json", move)
    code, out = run(*dirs, capsys)
    assert code == 1
    assert f"{field}: max |diff|" in out and "<- beyond 1e-12" in out


@pytest.mark.parametrize("field, value", [
    ("labels", ["Sx_A", "Sy_A", "Sz_A", "Sx_B", "Sy_B", "S_z"]),
    ("partition", ["A", "A", "A", "B", "B", "A"]),
    ("pt_parity", [1, 1, 1, 1, 1, 1]),
])
def test_record_tags_differ(dirs, capsys, field, value):
    _, new = dirs
    edit_record(new / "record.json", lambda record: record.update({field: value}))
    code, out = run(*dirs, capsys)
    assert code == 1
    assert "labels, partition and pt_parity identical: False" in out


def test_record_field_missing(dirs, capsys):
    _, new = dirs
    edit_record(new / "record.json", lambda record: record.pop("Omega"))
    code, out = run(*dirs, capsys)
    assert code == 1
    assert "fields missing: Omega" in out
