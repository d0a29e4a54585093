"""The interval arithmetic of ``scripts/paired_probe.py`` on canned pairs;
no revision is exported and nothing is timed."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "paired_probe.py"
_SPEC = importlib.util.spec_from_file_location("paired_probe", _PATH)
paired_probe = importlib.util.module_from_spec(_SPEC)
sys.path.insert(0, str(_PATH.parent))  # it imports bench_pairs beside it
_SPEC.loader.exec_module(paired_probe)


@pytest.mark.parametrize("n,k,coverage", [
    (6, 1, 1 - 2 / 64),            # the range: the smallest n for 95 %
    (10, 2, 1 - 22 / 1024),        # x_(2), x_(9)
    (20, 6, 1 - 2 * 21700 / 2 ** 20),  # x_(6), x_(15), Conover's table
])
def test_sign_interval_takes_the_tabulated_order_statistics(n, k, coverage):
    values = [float(i) for i in range(n, 0, -1)]  # sorted by the interval
    low, high, got = paired_probe.sign_interval(values)
    assert (low, high) == (float(k), float(n + 1 - k))
    assert got == pytest.approx(coverage)
    assert got >= 0.95


def test_sign_interval_of_too_few_values_is_the_range_below_95():
    low, high, coverage = paired_probe.sign_interval([3.0, 1.0, 2.0, 5.0,
                                                      4.0])
    assert (low, high) == (1.0, 5.0)
    assert coverage == pytest.approx(1 - 2 / 32)
    with pytest.raises(ValueError):
        paired_probe.sign_interval([])


def test_summary_of_canned_pairs():
    # head/base per pair: 0.8 ten times with two outliers at either end
    base = [1.0] * 12
    head = [0.8] * 10 + [0.5, 1.4]
    summary = paired_probe.summarize({"base": base, "head": head})
    assert summary["pairs"] == 12
    assert summary["median_ratio"] == pytest.approx(0.8)
    # n = 12 takes x_(3) and x_(10): both 0.8, so 1 is excluded
    assert summary["interval"] == pytest.approx([0.8, 0.8])
    assert summary["coverage"] == pytest.approx(1 - 2 * 79 / 4096)
    assert summary["excludes_1"] is True


def test_summary_of_a_change_that_moves_nothing_holds_1():
    base = [1.0, 1.1, 0.9, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1, 0.9]
    head = [1.02, 1.08, 0.93, 1.17, 0.99, 0.96, 1.06, 0.98, 1.12, 0.91]
    summary = paired_probe.summarize({"base": base, "head": head})
    low, high = summary["interval"]
    assert low < 1.0 < high
    assert summary["excludes_1"] is False
    with pytest.raises(ValueError):  # the pairs must be complete
        paired_probe.summarize({"base": base, "head": head[:-1]})
