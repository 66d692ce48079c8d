"""The cohort_stress scenario: replay determinism and its reference path.

``cohort_stress`` runs 10,000 clients through the vectorized cohort
model in a handful of simulator events. Same-seed replay must be
byte-identical, and the per-client reference path
(``vectorized=False``) must produce the identical lines, so a
vectorization bug cannot hide behind the fast path.
"""

from repro.core.cohort import CohortPopulation
from tests.experiments.scenarios import (
    COHORT_CLIENTS,
    SCENARIOS,
    checksum,
    cohort_stress,
    cohort_stress_result,
)
from tests.experiments.test_goldens import GOLDENS


class TestCohortStress:
    def test_scenario_is_registered(self):
        assert "cohort_stress" in SCENARIOS
        assert "cohort_stress" in GOLDENS

    def test_quick_run_is_deterministic_and_cohort_shaped(self):
        first = cohort_stress_result(seed=0)
        second = cohort_stress_result(seed=0)
        assert first.lines() == second.lines()
        assert first.sim_seconds == second.sim_seconds
        assert first.clients == COHORT_CLIENTS
        assert len(first.cohorts) >= 2
        assert first.path == "vectorized"
        # Thousands of logical client events carried by a few dozen
        # simulator events.
        assert first.logical_events >= first.clients
        assert first.sim_events < first.clients
        assert first.fault_fallbacks == 0

    def test_different_seeds_differ(self):
        assert checksum(cohort_stress(seed=1)) != checksum(cohort_stress(seed=2))

    def test_reference_path_matches_vectorized_checksum(self, monkeypatch):
        vectorized = cohort_stress_result(seed=0)
        run = CohortPopulation.run
        monkeypatch.setattr(
            CohortPopulation,
            "run",
            lambda self, sim=None, **_: run(self, sim, vectorized=False),
        )
        reference = cohort_stress_result(seed=0)
        assert reference.path == "reference"
        assert reference.lines() == vectorized.lines()
        assert reference.logical_events == vectorized.logical_events
        assert reference.sim_seconds == vectorized.sim_seconds
        # ...at O(clients) simulator events instead of O(cohorts).
        assert reference.sim_events > vectorized.sim_events
