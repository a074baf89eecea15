"""The README's Python quick start runs as written, and every entcov name it
mentions exists."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import entcov

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_quick_start_runs_and_prints_its_verdicts():
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", README, re.S).group(1)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert [line.split()[0] for line in result.stdout.splitlines()] == ["ENTANGLED"] * 3


def test_every_entcov_name_resolves():
    # the cli module is named for entcov.cli.main, which the package does
    # not import
    names = set(re.findall(r"\bentcov\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", README))
    names = {n for n in names if n.split(".")[0] != "cli"}
    assert "criterion_matrix" in names
    missing = []
    for name in sorted(names):
        try:
            functools.reduce(getattr, name.split("."), entcov)
        except AttributeError:
            missing.append(name)
    assert not missing, f"README names entcov.{', entcov.'.join(missing)}"
