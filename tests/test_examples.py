"""The README's library tour and ``scripts/conservation_study.py`` run as
documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rotsurf

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    drifts, report, slope = capsys.readouterr().out.splitlines()
    assert drifts.startswith("{'p_u_drift': ")
    assert report.startswith("ClairautReport(")
    assert slope.startswith("SlopeReport(")


def test_conservation_study_observes_fourth_order():
    src = str(Path(rotsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "conservation_study.py")],
        env=env, capture_output=True, text=True, check=True)
    # step, p_u, p_v and L drift, then the order (absent on a family's
    # first step) and the termination in brackets
    rows = re.findall(r"^\s*\d\.\d+e-\d+(?:\s+\S+){3}\s+(\S*)\s*\[(\w+)\]$",
                      result.stdout, re.M)
    assert len(rows) == 12
    assert {termination for _, termination in rows} == {"completed"}
    orders = [float(order) for order, _ in rows if order]
    assert len(orders) == 9
    assert all(3.8 <= order <= 4.2 for order in orders)
