"""Smoke runs of the experiment scripts that drive the recipes and ``median_evaluate``.

Each script runs in a subprocess, as a user runs it, and must exit 0 with
its output in place.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_friedman_tables_prints_a_sweep():
    done = run_script("friedman_tables.py", "--function", "2", "--reps", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "friedman 2  (lambda = 0.0, reps = 2)"
    # a header, then one row per bandwidth pair of the sweep grid
    assert len(lines) == 2 + 7
    assert all(row.split()[-1] == "0" for row in lines[2:])


def test_friedman_figures_writes_four_svgs(tmp_path):
    done = run_script("friedman_figures.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    names = ("friedman1_ranking.svg", "friedman1_gsi.svg", "friedman2_gsi.svg",
             "friedman3_ranking.svg")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_text(encoding="utf-8").lstrip().startswith("<svg")
