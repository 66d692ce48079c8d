"""Process-parallel fleet cohort execution (the multi-core node path).

Each fleet node's cohort population runs on its own fresh simulator —
the node runs are embarrassingly parallel by construction — so
:meth:`~repro.fleet.deployment.FleetDeployment.run_cohorts` can ship
them to the persistent sweep worker pool
(:func:`repro.experiments.sweep._pool_for`) instead of looping them on
one core. This module holds the picklable halves of that path:

* :class:`NodeWork` — everything one worker needs to reproduce a
  node's cohort run bit for bit: the node's index and platform seed,
  the platform config hash (the runtime-cache key), the sharded
  sub-specs, the resolved fault targets, and — load-bearing — the
  node's *current* :class:`~repro.thresholds.ThresholdTable`. The
  parent ships the live table because Algorithm 1 refines thresholds
  in place during per-client runs; a worker that rebuilt a pristine
  runtime would decide differently than the serial reference.
* :func:`run_node_work` — the worker entry point. Node runtimes are
  cached per worker process, keyed by
  ``(platform hash, node seed, apps, use_dsm, replicate_compute_units)``,
  so repeated ``run_cohorts`` calls amortize compile and build time;
  the shipped threshold table and socket latency override the rebuilt
  runtime's own, and the population runs on a fresh
  :class:`~repro.sim.Simulator` exactly as the serial path does.

Determinism contract: a work unit is a pure function of the parent's
sharding plus the shipped node state, results come back tagged with
their node index and are merged in node-index order, so the parallel
:class:`~repro.fleet.deployment.FleetCohortResult` — including its
checksum ``lines()`` — is byte-identical to serial. The serial path
stays the reference oracle (``tests/fleet/test_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cohort import CohortPopulation, CohortRunResult, CohortSpec
from repro.thresholds import ThresholdTable

__all__ = [
    "FLEET_JOBS_ENV",
    "NodeWork",
    "NodeWorkResult",
    "resolve_fleet_jobs",
    "run_node_work",
]

#: Environment variable read by :func:`resolve_fleet_jobs` when no
#: explicit ``jobs`` is given (CI sets it to route the fleet suites
#: through the worker pool).
FLEET_JOBS_ENV = "REPRO_FLEET_JOBS"

#: Default pool-worthiness threshold, in non-empty node shards. A
#: single node has nothing to overlap, so the pool only costs pickling
#: and dispatch there.
_MIN_NODES = 2


def resolve_fleet_jobs(jobs: Optional[int | str] = None) -> int:
    """Normalize the fleet ``--jobs`` value (``REPRO_FLEET_JOBS``
    fallback, default serial; 0 or ``"auto"`` means all CPUs).

    The sweep executor is imported only when there is something to
    resolve, so neither ``import repro.fleet`` nor an explicit
    ``jobs=1`` run loads the experiment harness and its process pool.
    """
    if isinstance(jobs, int) and jobs >= 1:
        return jobs
    from repro.experiments.sweep import resolve_jobs

    return resolve_jobs(jobs, env=FLEET_JOBS_ENV)


@dataclass(frozen=True)
class NodeWork:
    """One node's cohort run, packaged for a worker process."""

    index: int
    #: The node's SeedSequence-derived platform seed (part of the
    #: worker-side runtime-cache key).
    seed: int
    #: :func:`~repro.experiments.sweep.platform_config_hash` at ship
    #: time — a testbed recalibration must miss the runtime cache.
    platform_hash: str
    apps: tuple[str, ...]
    use_dsm: bool
    replicate_compute_units: bool
    sub_specs: tuple[CohortSpec, ...]
    background: int
    vectorized: Optional[bool]
    #: Resolved ``(cohort, client, call)`` fault triples for this
    #: node's shard (resolved in the parent, where the fault plan and
    #: the live threshold table are).
    fault_targets: Optional[frozenset]
    #: Snapshot of the node's *current* threshold table. Algorithm 1
    #: mutates thresholds during per-client runs; shipping the live
    #: state (not the compile-time defaults a rebuild would produce)
    #: is what keeps worker decisions identical to serial.
    thresholds: ThresholdTable
    socket_latency_s: float


@dataclass
class NodeWorkResult:
    """What a worker sends back: the run, tagged for ordered merge."""

    index: int
    result: CohortRunResult
    #: Whether this worker had to build the node runtime (False on a
    #: runtime-cache hit — the pool-reuse contract's observable).
    rebuilt: bool


#: Per-worker-process cache of rebuilt node runtimes; lives for the
#: worker's lifetime, which is the pool's lifetime (grow-never-shrink,
#: see ``repro.experiments.sweep``).
_RUNTIME_CACHE: dict = {}


def run_node_work(work: NodeWork) -> NodeWorkResult:
    """Worker entry point: run one node's sharded cohorts.

    Rebuilds (or reuses) the node's runtime for its compile cache and
    metrics spine, installs the shipped threshold table and socket
    latency on the population, and runs on a fresh simulator — the
    exact construction the serial loop performs in the parent.
    """
    from repro.core.runtime import build_system
    from repro.sim import Simulator

    key = (
        work.platform_hash,
        work.seed,
        work.apps,
        work.use_dsm,
        work.replicate_compute_units,
    )
    runtime = _RUNTIME_CACHE.get(key)
    rebuilt = runtime is None
    if rebuilt:
        runtime = build_system(
            work.apps,
            seed=work.seed,
            use_dsm=work.use_dsm,
            replicate_compute_units=work.replicate_compute_units,
        )
        _RUNTIME_CACHE[key] = runtime
    population = CohortPopulation(
        work.sub_specs,
        background=work.background,
        thresholds=work.thresholds,
        server=runtime.server,
        socket_latency_s=work.socket_latency_s,
        fault_targets=work.fault_targets,
    )
    result = population.run(sim=Simulator(), vectorized=work.vectorized)
    return NodeWorkResult(index=work.index, result=result, rebuilt=rebuilt)
