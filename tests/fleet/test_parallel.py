"""The parallel-vs-serial fleet differential oracle.

``FleetDeployment.run_cohorts(jobs>1)`` ships per-node work units to
the persistent sweep worker pool; the serial path stays the reference.
The contract under test: the parallel :class:`FleetCohortResult` —
checksum lines, per-node results, fault fallbacks, and every node's
metrics snapshot — is byte-identical to serial, for 1-node and
10-node fleets, with and without fault plans, and with empty node
shards; and the per-worker runtime cache makes repeated calls skip
node-runtime rebuilds.
"""

import pytest

from repro.core.cohort import ArrivalLaw, CohortSpec
from repro.experiments.sweep import shutdown_pool
from repro.fleet import FleetConfig, FleetDeployment
from repro.fleet.parallel import (
    FLEET_JOBS_ENV,
    resolve_fleet_jobs,
    run_node_work,
)

pytestmark = pytest.mark.metrics

APPS = ("digit.2000", "facedet.320")


def _specs(clients=150):
    first = clients // 2
    return [
        CohortSpec(
            "digit.2000", first, calls=3,
            arrival=ArrivalLaw("uniform", start=0.0, span=10.0), seed=21,
        ),
        CohortSpec(
            "facedet.320", clients - first, calls=2,
            arrival=ArrivalLaw("poisson", start=1.0, span=8.0), seed=22,
        ),
    ]


def _fleet(nodes, seed=11):
    return FleetDeployment(FleetConfig(nodes=nodes, apps=APPS, seed=seed))


class TestParallelEqualsSerial:
    def test_ten_node_fleet_bit_identical(self):
        serial_fleet = _fleet(10)
        parallel_fleet = _fleet(10)
        serial = serial_fleet.run_cohorts(_specs(), background=10, jobs=1)
        parallel = parallel_fleet.run_cohorts(_specs(), background=10, jobs=2)
        serial_fleet.stop()
        parallel_fleet.stop()

        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert parallel.workers == 2
        assert parallel.lines() == serial.lines()
        assert parallel.assigned_per_node == serial.assigned_per_node
        assert [i for i, _r in parallel.node_results] == [
            i for i, _r in serial.node_results
        ]
        # Worker-side runs are replayed into each node's own registry,
        # so the observability contract holds byte for byte too.
        for ours, theirs in zip(serial_fleet.nodes, parallel_fleet.nodes):
            assert (
                ours.server.metrics.snapshot() == theirs.server.metrics.snapshot()
            )

    def test_one_node_fleet_through_forced_pool(self):
        fleet = _fleet(1)
        serial = fleet.run_cohorts(_specs(60), background=5, jobs=1)
        # min_nodes=0 disables the serial fallback, pushing even the
        # single shard through a worker process.
        parallel = fleet.run_cohorts(_specs(60), background=5, jobs=2, min_nodes=0)
        fleet.stop()
        assert parallel.mode == "parallel"
        assert parallel.lines() == serial.lines()

    def test_fault_plans_bit_identical(self):
        from repro.faults import FleetFaultPlan
        from repro.workloads import profile_for

        kernels = sorted(
            {
                profile_for(app).kernel_name
                for app in APPS
                if profile_for(app).kernel_name
            }
        )
        plan = FleetFaultPlan.generate(7, 4, horizon_s=20.0, kernels=kernels)
        plans = dict(plan.plans)
        assert plans, "fault plan generated no per-node plans"

        fleet = _fleet(4, seed=7)
        serial = fleet.run_cohorts(
            _specs(), background=5, fault_plans=plans, jobs=1
        )
        parallel = fleet.run_cohorts(
            _specs(), background=5, fault_plans=plans, jobs=2, min_nodes=0
        )
        fleet.stop()
        assert parallel.mode == "parallel"
        assert parallel.lines() == serial.lines()
        assert parallel.fault_fallbacks == serial.fault_fallbacks

    def test_empty_node_shards(self):
        # More nodes than clients: some nodes get no sub-specs and must
        # be absent from node_results on both paths.
        specs = [
            CohortSpec(
                "digit.2000", 4, calls=2,
                arrival=ArrivalLaw("staggered", span=4.0), seed=3,
            )
        ]
        fleet = _fleet(8)
        serial = fleet.run_cohorts(specs, background=0, jobs=1)
        parallel = fleet.run_cohorts(specs, background=0, jobs=2, min_nodes=0)
        fleet.stop()
        assert parallel.mode == "parallel"
        assert len(serial.node_results) < 8
        assert parallel.lines() == serial.lines()
        assert sum(serial.assigned_per_node) == 4


class TestFallbacksAndKnobs:
    def test_serial_below_threshold(self):
        # One non-empty shard < the default two-shard threshold, so a
        # multi-job call still runs serially (like run_cells).
        fleet = _fleet(1)
        result = fleet.run_cohorts(_specs(40), background=0, jobs=2)
        fleet.stop()
        assert result.mode == "serial"
        assert result.workers == 1

    def test_jobs_env(self, monkeypatch):
        monkeypatch.delenv(FLEET_JOBS_ENV, raising=False)
        assert resolve_fleet_jobs(None) == 1
        monkeypatch.setenv(FLEET_JOBS_ENV, "3")
        assert resolve_fleet_jobs(None) == 3
        assert resolve_fleet_jobs(5) == 5


class TestPoolReuse:
    def test_second_call_skips_worker_rebuilds(self):
        # A single work unit caps workers at one, so the fresh pool's
        # only worker must serve both calls — the second call hits its
        # runtime cache deterministically.
        shutdown_pool()
        fleet = _fleet(1)
        first = fleet.run_cohorts(_specs(40), background=0, jobs=2, min_nodes=0)
        second = fleet.run_cohorts(_specs(40), background=0, jobs=2, min_nodes=0)
        fleet.stop()
        shutdown_pool()
        assert first.mode == second.mode == "parallel"
        assert first.worker_rebuilds == 1
        assert second.worker_rebuilds == 0
        assert second.lines() == first.lines()

    def test_worker_runtime_cache_in_process(self):
        from repro.experiments.sweep import platform_config_hash
        from repro.fleet import parallel

        fleet = _fleet(1)
        node = fleet.nodes[0]
        per_node, _assigned = fleet.shard_cohorts(_specs(40))
        work = parallel.NodeWork(
            index=0,
            seed=node.seed,
            platform_hash=platform_config_hash(),
            apps=fleet.config.apps,
            use_dsm=fleet.config.use_dsm,
            replicate_compute_units=fleet.config.replicate_compute_units,
            sub_specs=tuple(per_node[0]),
            background=0,
            vectorized=None,
            fault_targets=None,
            thresholds=node.server.thresholds.copy(),
            socket_latency_s=node.server.socket_latency_s,
        )
        fleet.stop()
        parallel._RUNTIME_CACHE.clear()
        try:
            first = run_node_work(work)
            second = run_node_work(work)
        finally:
            parallel._RUNTIME_CACHE.clear()
        assert first.rebuilt is True
        assert second.rebuilt is False
        assert second.result.lines() == first.result.lines()
