"""Fleet-scale sharded scheduling across multi-node deployments.

The warehouse-scale tier on top of the paper's single-node system:
N complete x86+ARM+FPGA deployments on one simulated clock, a gossip
bus publishing stale load digests, and a sticky /
power-of-two-choices router doing two-level placement (the fleet picks
the node; the node's Algorithm-2 scheduler picks the target). See
``docs/fleet.md``.
"""

from repro.fleet.deployment import (
    DATACENTER_FABRIC,
    FleetCohortResult,
    FleetConfig,
    FleetDeployment,
    FleetError,
    node_seeds,
)
from repro.fleet.gossip import GossipBus, GossipError, LoadDigest
from repro.fleet.node import FleetNode
from repro.fleet.parallel import (
    FLEET_JOBS_ENV,
    NodeWork,
    NodeWorkResult,
    resolve_fleet_jobs,
    run_node_work,
)
from repro.fleet.router import FleetRouter, RouteOutcome

__all__ = [
    "DATACENTER_FABRIC",
    "FLEET_JOBS_ENV",
    "FleetCohortResult",
    "FleetConfig",
    "FleetDeployment",
    "FleetError",
    "FleetNode",
    "FleetRouter",
    "GossipBus",
    "GossipError",
    "LoadDigest",
    "NodeWork",
    "NodeWorkResult",
    "RouteOutcome",
    "node_seeds",
    "resolve_fleet_jobs",
    "run_node_work",
]
