"""Replay determinism of the scenarios the wall-clock bench used to time.

The scenarios now live in :mod:`tests.experiments.scenarios` and are
pinned by the goldens in ``test_goldens.py``; timing belongs to
``perfbench/``. These tests hold the properties the goldens rely on:
a seed replays byte for byte, work budget included, different seeds
give different outputs, and profiling a run does not change it.
"""

import cProfile
import re

import pytest

from tests.experiments.scenarios import (
    SCENARIOS,
    checksum,
    record_lines,
    scale_workload,
    work_counters,
)


def _run(name, seed, quick=True):
    with work_counters() as work:
        lines = SCENARIOS[name](seed=seed, quick=quick)
    return lines, work


class TestReplayDeterminism:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_same_seed_same_outputs(self, name):
        first_lines, first_work = _run(name, seed=3)
        second_lines, second_work = _run(name, seed=3)
        assert first_lines == second_lines
        assert first_work == second_work

    def test_different_seeds_differ(self):
        first, _ = _run("fig5_high_load", seed=1)
        second, _ = _run("fig5_high_load", seed=2)
        assert checksum(first) != checksum(second)


class TestReportPlumbing:
    def test_scenario_metrics_are_populated(self):
        lines, work = _run("fig3_low_load", seed=0)
        assert work["events"] > 0
        assert work["ps_updates"] > 0
        assert re.fullmatch(r"[0-9a-f]{16}", checksum(lines))


class TestScaleStress:
    def test_quick_run_is_deterministic_and_migration_heavy(self):
        # The quick scale_stress shape replays exactly and really
        # exercises the batched-DSM and migration paths.
        first_runtime, first = scale_workload(seed=0, n_clients=250, background=25)
        _runtime, second = scale_workload(seed=0, n_clients=250, background=25)
        assert record_lines(first) == record_lines(second)
        assert len(first) == 250
        assert sum(rec.migrations for rec in first) > 0
        assert first_runtime.dsm.stats.page_transfers > 0
        snapshot = first_runtime.load_snapshot()["x86"]
        assert snapshot["max"] >= 25
        assert snapshot["time_weighted_mean"] > 0


class TestProfileSmoke:
    def test_profiled_run_keeps_the_checksum(self):
        # Profiling is observation only: a run under cProfile (as
        # perfbench's --trace 1 makes) replays the plain run exactly.
        plain = _run("fig3_low_load", seed=3)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            profiled = _run("fig3_low_load", seed=3)
        finally:
            profiler.disable()
        assert profiled == plain
