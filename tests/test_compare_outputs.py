"""scripts/compare_outputs.py on a pair of output directories, the newer one
edited by hand: what it accepts, what it rejects and what it reports."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

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
    """An old directory with a werner-bell CSV and a suite report, and a
    byte-identical copy to edit."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    assert main(["werner-bell", "--mu-steps", "9", "--out", str(old / "wb.csv")]) == 0
    (old / "suite.txt").write_text(SUITE_REPORT)
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
