"""The statistics of the paired bench script ``bench/paired.py``, driven by
a stub measurement: which side reads first in each pair, and each
metric's quartiles, median ratio, gap over the base IQR and wins.
"""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench():
    path = Path(__file__).resolve().parent.parent / "bench" / "paired.py"
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("paired_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.path[:] = saved
    return module


def _stub(values, metric="wall_s"):
    """A ``measure`` returning each side's next value of ``values``, and
    the list of (side, step) calls it received."""
    calls = []

    def measure(side, step):
        taken = sum(s == side for s, _ in calls)
        calls.append((side, step))
        return {metric: values[side][taken]}

    return measure, calls


def test_sides_alternate_base_first_in_even_pairs(bench):
    measure, calls = _stub({"base": [1.0] * 6, "change": [1.0] * 6})
    bench.paired(["a", "b"], measure, pairs=3)
    assert calls == [
        ("base", "a"), ("change", "a"), ("base", "b"), ("change", "b"),
        ("change", "a"), ("base", "a"), ("change", "b"), ("base", "b"),
        ("base", "a"), ("change", "a"), ("base", "b"), ("change", "b"),
    ]


VALUES = {"base": [4.0, 2.0, 5.0, 1.0, 3.0], "change": [3.0, 2.5, 6.0, 0.5, 3.0]}


def test_summary_of_a_lower_is_better_metric(bench):
    measure, _ = _stub(VALUES)
    result = bench.paired(["w"], measure, pairs=5)
    assert result["readings"] == {"base": {"wall_s": VALUES["base"]},
                                  "change": {"wall_s": VALUES["change"]}}
    summary = result["summary"]["wall_s"]
    assert summary["base_quartiles"] == [2.0, 3.0, 4.0]
    assert summary["change_quartiles"] == [2.5, 3.0, 3.0]
    assert summary["median_ratio"] == 1.0
    assert summary["median_gap_over_base_iqr"] == 0.0
    # 3 < 4 and 0.5 < 1 win; the tie 3 = 3 counts for neither side
    assert summary["change_wins"] == 2
    assert summary["pairs"] == 5


def test_wins_flip_for_rounds_per_s(bench):
    assert "rounds_per_s" in bench.HIGHER_IS_BETTER
    measure, _ = _stub(VALUES, metric="rounds_per_s")
    summary = bench.paired(["w"], measure, pairs=5)["summary"]["rounds_per_s"]
    # 2.5 > 2 and 6 > 5 win; the tie counts for neither side
    assert summary["change_wins"] == 2


def test_median_ratio_and_gap_over_base_iqr(bench):
    measure, _ = _stub({"base": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [2.0] * 5})
    summary = bench.paired(["w"], measure, pairs=5)["summary"]["wall_s"]
    assert summary["median_ratio"] == pytest.approx(2.0 / 3.0)
    assert summary["median_gap_over_base_iqr"] == pytest.approx(0.5)


def test_gap_is_none_when_the_base_iqr_is_zero(bench):
    measure, _ = _stub({"base": [2.0] * 4, "change": [1.0, 2.0, 3.0, 4.0]})
    summary = bench.paired(["w"], measure, pairs=4)["summary"]["wall_s"]
    assert summary["base_quartiles"] == [2.0, 2.0, 2.0]
    assert summary["median_gap_over_base_iqr"] is None
    assert summary["change_wins"] == 1


def test_import_times_reads_wall_and_cpu(bench, tmp_path):
    root = Path(__file__).resolve().parent.parent
    times = bench.import_times(root, "import json", None, tmp_path)
    assert set(times) == {"wall_s", "cpu_s"}
    # the CPU seconds count the interpreter's start-up, the wall seconds
    # only the statement
    assert 0 <= times["wall_s"] < times["cpu_s"]


def test_in_process_reading_collects_first(bench, monkeypatch):
    events = []
    monkeypatch.setattr(bench.gc, "collect", lambda: events.append("collect"))
    monkeypatch.setattr(bench, "reading", lambda: events.append("reading") or {"loop_s": 1.0})
    bench.at_reference_speed(lambda: events.append("work"))
    assert events == ["collect", "reading", "work", "reading"]
