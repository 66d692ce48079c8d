"""A multi-node Xar-Trek fleet on one simulated clock.

:class:`FleetDeployment` builds N complete single-node deployments
(each its own x86 + ARM clusters, FPGA, scheduler daemon, and in-node
DSM — exactly what :func:`repro.core.build_system` produces) on one
shared :class:`~repro.sim.Simulator`, then layers the federated tier on
top: a :class:`~repro.fleet.gossip.GossipBus` publishing per-node load
digests every ``gossip_interval_s``, a
:class:`~repro.fleet.router.FleetRouter` doing sticky /
power-of-two-choices placement on the stale digests, and a fleet-level
DSM over the inter-node fabric that accounts cross-node client
migrations as real page traffic.

Determinism contract (tested):

* node seeds come from ``numpy.random.SeedSequence(seed).spawn(n)``,
  so node ``i``'s platform is a pure function of ``(seed, i)`` and is
  insensitive to the fleet size;
* the fleet tier draws from its own RNG stream, never a node's, and
  routing adds zero simulated time — a 1-node fleet is bit-identical
  to the plain single-node :class:`~repro.core.runtime.XarTrekRuntime`
  path (the differential test in ``tests/fleet`` holds this the same
  way the cohort oracle holds vectorized == reference);
* replaying the same config replays every record and counter.

Cohort-scale populations (the 10k-client ``fleet_stress`` shape) are
sharded across nodes at *assignment time*: clients are walked in global
arrival order, the router's load view refreshes only at gossip-interval
boundaries (the stale-load model, quantized), and each node then runs
its assigned sub-cohorts through the vectorized
:class:`~repro.core.cohort.CohortPopulation` on a fresh per-node
simulator — the cohort model is open-loop, so its clock is independent
of the fleet's hardware clock by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.cohort import (
    ArrivalLaw,
    CohortPopulation,
    CohortRunResult,
    CohortSpec,
    sample_arrivals,
)
from repro.core.runtime import build_system
from repro.fleet.gossip import GossipBus
from repro.fleet.node import FleetNode
from repro.fleet.router import FleetRouter
from repro.hardware.interconnect import Link, LinkSpec
from repro.hardware.platform import HeterogeneousPlatform
from repro.metrics import MetricsRegistry
from repro.popcorn.dsm import DSM
from repro.sim import Event, RandomStreams, Simulator
from repro.workloads import PAPER_BENCHMARKS

__all__ = [
    "DATACENTER_FABRIC",
    "FleetConfig",
    "FleetCohortResult",
    "FleetDeployment",
    "FleetError",
    "node_seeds",
]

#: The inter-node fabric: 10 GbE-class datacenter network (vs the
#: 1 Gbps in-node Ethernet between a node's x86 and ARM servers).
DATACENTER_FABRIC = LinkSpec("fabric", bandwidth_bytes_per_s=1.25e9, latency_s=50e-6)


class FleetError(Exception):
    """Raised for malformed fleet configs or misuse of a deployment."""


def node_seeds(seed: int, n_nodes: int) -> list[int]:
    """Per-node platform seeds via ``SeedSequence(seed).spawn(n)``.

    Exposed so the differential test can rebuild node ``i``'s exact
    single-node reference system outside any fleet.
    """
    children = np.random.SeedSequence(seed).spawn(n_nodes)
    return [int(child.generate_state(1)[0]) for child in children]


@dataclass(frozen=True)
class FleetConfig:
    """Static description of a fleet deployment."""

    nodes: int = 2
    apps: tuple[str, ...] = tuple(sorted(set(PAPER_BENCHMARKS)))
    seed: int = 0
    #: How often every node republishes its load digest (simulated
    #: seconds); remote decisions are at most this stale.
    gossip_interval_s: float = 1.0
    #: A sticky client is reconsidered when its node's stale score
    #: exceeds this multiple of the stale fleet minimum.
    rebalance_factor: float = 2.0
    use_dsm: bool = True
    replicate_compute_units: bool = False

    def __post_init__(self):
        if self.nodes < 1:
            raise FleetError(f"a fleet needs >= 1 node, got {self.nodes}")
        if self.gossip_interval_s <= 0:
            raise FleetError(
                f"gossip_interval_s must be positive, got {self.gossip_interval_s}"
            )
        if not self.apps:
            raise FleetError("a fleet needs at least one application")


@dataclass
class FleetCohortResult:
    """A sharded cohort run: per-node results plus fleet aggregates."""

    #: ``(node index, that node's CohortRunResult)`` in node order;
    #: nodes that received no clients are absent.
    node_results: list[tuple[int, CohortRunResult]]
    clients: int
    logical_events: int
    sim_events: int
    #: The slowest node's completion horizon (nodes run concurrently).
    sim_seconds: float
    assigned_per_node: list[int]
    #: How the node runs executed: ``"serial"`` or ``"parallel"``.
    #: Execution mode never appears in :meth:`lines` — the two paths
    #: are byte-identical there by contract.
    mode: str = "serial"
    #: Worker processes the run actually used (1 when serial).
    workers: int = 1
    #: Node runtimes built fresh in workers this call (0 once every
    #: worker's runtime cache is warm — the pool-reuse observable).
    worker_rebuilds: int = 0

    @property
    def fault_fallbacks(self) -> int:
        return sum(result.fault_fallbacks for _index, result in self.node_results)

    def assignment_skew(self) -> int:
        """max - min clients assigned per node."""
        return max(self.assigned_per_node) - min(self.assigned_per_node)

    def lines(self) -> list[str]:
        """Deterministic checksum lines: per-node headers + each
        node's own cohort lines (repr-float exact, like the single-node
        path)."""
        out = []
        for index, result in self.node_results:
            out.append(
                f"node{index} clients={result.clients} "
                f"events={result.logical_events} path={result.path}"
            )
            out.extend(result.lines())
        out.append(
            "assigned=" + ",".join(str(c) for c in self.assigned_per_node)
        )
        return out


class FleetDeployment:
    """N single-node deployments federated behind one routing tier."""

    def __init__(
        self,
        config: FleetConfig,
        trace: bool = False,
        **runtime_options,
    ):
        """Extra keyword arguments (``resilience``, ``policy``, ...)
        are forwarded to every node's :class:`XarTrekRuntime`."""
        self.config = config
        self.sim = Simulator()
        self.seeds = node_seeds(config.seed, config.nodes)
        self.nodes: list[FleetNode] = []
        for index, seed in enumerate(self.seeds):
            platform = HeterogeneousPlatform(sim=self.sim, seed=seed, trace=trace)
            runtime = build_system(
                config.apps,
                seed=seed,
                platform=platform,
                use_dsm=config.use_dsm,
                replicate_compute_units=config.replicate_compute_units,
                **runtime_options,
            )
            self.nodes.append(FleetNode(index, runtime, seed))

        #: The fleet tier's own telemetry spine, separate from every
        #: node's registry (a node stays bit-identical to its
        #: single-node twin; fleet counters live up here).
        self._streams = RandomStreams(config.seed).spawn("fleet")
        self.metrics = MetricsRegistry(
            clock=lambda: self.sim.now, rng=self._streams.spawn("metrics")
        )
        self.fabric = Link(self.sim, DATACENTER_FABRIC)
        self.dsm = DSM(self.sim, self.fabric)
        for node in self.nodes:
            self.dsm.add_node(node.name)
        self.gossip = GossipBus(
            self.sim, self.nodes, config.gossip_interval_s, self.metrics
        )
        self.router = FleetRouter(
            self.nodes,
            self.gossip,
            rng=self._streams.stream("router"),
            metrics=self.metrics,
            dsm=self.dsm,
            rebalance_factor=config.rebalance_factor,
        )
        self._auto_clients = 0
        self.gossip.start()

    # -- lookups -----------------------------------------------------------
    def node(self, index: int) -> FleetNode:
        return self.nodes[index]

    def records(self) -> list:
        """All nodes' run records, node-major (each node's in
        completion order, as on the single-node path)."""
        out = []
        for node in self.nodes:
            out.extend(node.records)
        return out

    def load_skew(self) -> float:
        """max - min published node load score (stale, by design)."""
        return self.gossip.load_skew()

    # -- the per-client path -----------------------------------------------
    def launch(
        self,
        app_name: str,
        client: Optional[object] = None,
        delay_s: float = 0.0,
        **launch_options,
    ) -> Event:
        """Route and start one application run; fires with its record.

        ``client`` is the sticky routing key — runs sharing a key stay
        on one node until a gossip delta or an outage moves them (and
        the move ships their working set over the fabric). Omitting it
        makes the run its own one-shot client. Remaining options go to
        :meth:`XarTrekRuntime.launch` (seed, mode, calls, ...).

        Routing happens when the client *starts* (after ``delay_s``),
        not when this call is made — a staggered client must be placed
        against the gossip state of its start time, or every client of
        a wave would herd onto the round-0 view.
        """
        if client is None:
            client = f"anon{self._auto_clients}"
            self._auto_clients += 1
        if delay_s <= 0:
            node, _outcome = self.router.route(client, app_name)
            return node.runtime.launch(app_name, **launch_options)
        done = self.sim.event()

        def forward(ev: Event) -> None:
            if ev.ok:
                done.succeed(ev.value)
            else:
                done.fail(ev.value)

        def kick() -> None:
            node, _outcome = self.router.route(client, app_name)
            inner = node.runtime.launch(app_name, **launch_options)
            # The caller only holds `done`; a failed run must propagate
            # through it rather than crash the whole simulation.
            inner.defused = True
            inner.callbacks.append(forward)

        self.sim.defer(delay_s, kick)
        return done

    def wait_all(self, events: Iterable[Event]) -> list:
        """Run the shared simulation until every event fires."""
        return [self.sim.run_until_event(event) for event in events]

    def stop(self) -> None:
        """Cancel the gossip tick (so ``sim.run()`` can drain); the
        node daemons keep running."""
        self.gossip.stop()

    # -- the cohort path ----------------------------------------------------
    def shard_cohorts(
        self, specs: Sequence[CohortSpec]
    ) -> tuple[list[list[CohortSpec]], list[int]]:
        """Assign every client of every spec to a node on stale load.

        Clients are walked in global arrival order; the router's
        per-node client-count view refreshes only at gossip-interval
        boundaries (each client's observed staleness is recorded), and
        placement is power-of-two-choices over that stale view. Each
        node's sub-spec keeps its clients in original client-index
        order with their exact arrival times (``explicit`` law), so a
        1-node fleet reproduces the original cohort bit for bit.

        Returns ``(per-node spec lists, clients assigned per node)``.
        """
        specs = tuple(specs)
        n = len(self.nodes)
        arrivals = [sample_arrivals(spec) for spec in specs]
        order = sorted(
            (float(arr[ci]), si, ci)
            for si, arr in enumerate(arrivals)
            for ci in range(len(arr))
        )
        interval = self.config.gossip_interval_s
        # A fresh derived generator per call (not the cached stateful
        # stream): sharding is a pure function of (config, specs), so
        # inspecting a sharding with shard_cohorts() and then running
        # run_cohorts() executes exactly the sharding inspected.
        rng = self._streams.spawn("cohort-shard").stream("assign")
        true_counts = [0] * n
        stale_counts = [0] * n
        last_boundary = 0.0
        assignment = [np.zeros(len(arr), dtype=np.int64) for arr in arrivals]
        for t, si, ci in order:
            boundary = math.floor(t / interval) * interval
            if boundary > last_boundary:
                stale_counts = list(true_counts)
                last_boundary = boundary
            self.gossip.record_staleness(t - last_boundary)
            if n == 1:
                node = 0
            else:
                i, j = rng.choice(n, size=2, replace=False)
                i, j = int(i), int(j)
                if stale_counts[i] < stale_counts[j]:
                    node = i
                elif stale_counts[j] < stale_counts[i]:
                    node = j
                else:
                    node = min(i, j)
            true_counts[node] += 1
            assignment[si][ci] = node

        per_node: list[list[CohortSpec]] = [[] for _ in range(n)]
        for si, spec in enumerate(specs):
            for node in range(n):
                indexes = np.flatnonzero(assignment[si] == node)
                if not len(indexes):
                    continue
                times = tuple(float(arrivals[si][ci]) for ci in indexes)
                per_node[node].append(
                    CohortSpec(
                        app=spec.app,
                        clients=len(times),
                        calls=spec.calls,
                        arrival=ArrivalLaw(kind="explicit", times=times),
                        seed=spec.seed,
                    )
                )
        return per_node, true_counts

    def run_cohorts(
        self,
        specs: Sequence[CohortSpec],
        background: int = 0,
        vectorized: Optional[bool] = None,
        fault_plans: Optional[dict[int, object]] = None,
        jobs: Optional[int | str] = None,
        min_nodes: Optional[int] = None,
    ) -> FleetCohortResult:
        """Shard ``specs`` across the fleet and run every node's share.

        ``background`` is the per-node resident background process
        count (each node has its own MG-B pool). ``fault_plans`` maps
        node index -> :class:`~repro.faults.plan.FaultPlan`, resolved
        to that node's sub-cohorts ahead of time. Each node's
        population runs on a fresh simulator (the cohort model is
        open-loop; nodes are concurrent, so the fleet horizon is the
        slowest node's).

        ``jobs`` > 1 fans the node runs out over the persistent sweep
        worker pool (default: the ``REPRO_FLEET_JOBS`` env var, serial
        if unset). Results merge in node-index order and the parallel
        result — including :meth:`FleetCohortResult.lines` — is
        byte-identical to serial; worker-side runs are replayed into
        each node's own metrics registry so the observability contract
        holds too. A multi-job call still runs serially below
        ``min_nodes`` non-empty shards (default 2; 0 forces the
        pool), mirroring ``run_cells``.
        """
        from repro.core.cohort import record_cohort_run
        from repro.faults.cohort import resolve_cohort_faults
        from repro.fleet.parallel import (
            _MIN_NODES,
            NodeWork,
            resolve_fleet_jobs,
            run_node_work,
        )

        per_node, assigned = self.shard_cohorts(specs)
        work_nodes = [node for node in self.nodes if per_node[node.index]]
        # Fault resolution happens in the parent for both paths: the
        # resolver needs the node's live (Algorithm-1-refined)
        # threshold table, which worker processes do not have.
        fault_targets: dict[int, frozenset] = {}
        for node in work_nodes:
            plan = (fault_plans or {}).get(node.index)
            if plan is not None:
                fault_targets[node.index] = resolve_cohort_faults(
                    plan, tuple(per_node[node.index]), node.server.thresholds
                )

        jobs = resolve_fleet_jobs(jobs)
        threshold = _MIN_NODES if min_nodes is None else min_nodes
        use_pool = jobs > 1 and work_nodes and len(work_nodes) >= threshold
        mode = "serial"
        workers = 1
        rebuilds = 0
        node_results: list[tuple[int, CohortRunResult]] = []
        if use_pool:
            from concurrent.futures.process import BrokenProcessPool

            from repro.experiments.sweep import (
                _pool_for,
                platform_config_hash,
                shutdown_pool,
            )

            config_hash = platform_config_hash()
            works = [
                NodeWork(
                    index=node.index,
                    seed=node.seed,
                    platform_hash=config_hash,
                    apps=self.config.apps,
                    use_dsm=self.config.use_dsm,
                    replicate_compute_units=self.config.replicate_compute_units,
                    sub_specs=tuple(per_node[node.index]),
                    background=background,
                    vectorized=vectorized,
                    fault_targets=fault_targets.get(node.index),
                    thresholds=node.server.thresholds.copy(),
                    socket_latency_s=node.server.socket_latency_s,
                )
                for node in work_nodes
            ]
            workers = min(jobs, len(works))
            pool = _pool_for(workers)
            try:
                # Collect everything before recording anything: a
                # worker death mid-map must leave the node registries
                # untouched so the serial recovery does not double
                # count.
                outs = list(pool.map(run_node_work, works, chunksize=1))
                mode = "parallel"
                for node, out in zip(work_nodes, outs):
                    record_cohort_run(out.result, server=node.server)
                    rebuilds += int(out.rebuilt)
                    node_results.append((node.index, out.result))
            except BrokenProcessPool:
                # A worker died (OOM kill, signal). Results are
                # deterministic either way, so recover by running the
                # nodes serially rather than failing the fleet run.
                shutdown_pool()
                workers = 1
                node_results = []
        if not node_results:
            for node in work_nodes:
                population = CohortPopulation(
                    per_node[node.index],
                    background=background,
                    server=node.server,
                    fault_targets=fault_targets.get(node.index),
                )
                result = population.run(sim=Simulator(), vectorized=vectorized)
                node_results.append((node.index, result))
        clients = 0
        logical_events = 0
        sim_events = 0
        horizon = 0.0
        for _index, result in node_results:
            clients += result.clients
            logical_events += result.logical_events
            sim_events += result.sim_events
            horizon = max(horizon, result.sim_seconds)
        return FleetCohortResult(
            node_results=node_results,
            clients=clients,
            logical_events=logical_events,
            sim_events=sim_events,
            sim_seconds=horizon,
            assigned_per_node=assigned,
            mode=mode,
            workers=workers,
            worker_rebuilds=rebuilds,
        )
