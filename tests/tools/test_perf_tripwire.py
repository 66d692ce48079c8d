"""The perf tripwire's decision: a pure function of the runs and the bound."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perf_tripwire", ROOT / "tools" / "perf_tripwire.py"
)
tripwire = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tripwire)
Run = tripwire.Run


def _runs(*values, failed=0):
    return [Run(value, failed) for value in values]


@pytest.fixture(scope="module")
def bound():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return tripwire.read_bound(json.load(handle))


class TestBound:
    def test_reads_the_host_us_per_call_bound(self, bound):
        assert bound == 0.25

    def test_unknown_metric_is_an_error(self):
        with pytest.raises(KeyError, match="no end-to-end metric"):
            tripwire.read_bound({"end_to_end": []})


class TestVerdict:
    def test_thirty_percent_slower_fails(self, bound):
        parent = _runs(100.0, 98.0, 102.0, 100.0, 101.0)
        change = _runs(130.0, 128.0, 133.0, 130.0, 131.0)
        problems = tripwire.verdict("percall_scale", parent, change, bound)
        assert len(problems) == 1
        assert problems[0].startswith("percall_scale: median host_us_per_call")
        assert "+30.0%" in problems[0]

    def test_equal_runs_pass(self, bound):
        runs = _runs(100.0, 98.0, 102.0, 100.0, 101.0)
        assert tripwire.verdict("fleet_cohort", runs, list(runs), bound) == []

    def test_faster_and_slightly_slower_pass(self, bound):
        parent = _runs(100.0, 100.0, 100.0)
        assert tripwire.verdict("w", parent, _runs(60.0, 61.0, 59.0), bound) == []
        assert tripwire.verdict("w", parent, _runs(124.0, 120.0, 126.0), bound) == []

    def test_the_median_decides_not_one_outlier(self, bound):
        parent = _runs(100.0, 100.0, 100.0, 100.0, 100.0)
        change = _runs(100.0, 300.0, 100.0, 101.0, 99.0)
        assert tripwire.verdict("w", parent, change, bound) == []

    def test_a_failed_run_fails(self, bound):
        parent = _runs(100.0, 100.0, 100.0)
        change = _runs(100.0, 100.0) + [Run(90.0, 2)]
        problems = tripwire.verdict("flash_brownout", parent, change, bound)
        assert problems == ["flash_brownout: change run 2 failed a check"]

    def test_a_run_without_a_result_fails(self, bound):
        parent = [Run(None, 1)] + _runs(100.0, 100.0)
        problems = tripwire.verdict("w", parent, _runs(1.0, 1.0, 1.0), bound)
        assert problems == ["w: parent run 0 failed a check"]
