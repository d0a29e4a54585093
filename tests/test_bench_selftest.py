"""The benchmark's self-test passes: its checks accept the real outputs of
rotsurf and reject perturbed copies.  A change that breaks what those
checks read would otherwise show only in paired benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
