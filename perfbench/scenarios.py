"""The benchmark's three workloads, driven through public functions only.

Each workload splits one repetition into a set-up (``setup``: cold
compile, deployment build, input generation) and a timed section
(``run``: launching clients and running the simulation), then reads
the outcome from public state (``summarize``). Inputs are a pure
function of the seed, so every repetition in one process repeats the
same simulation; ``summarize`` checks conservation and returns the
checksum lines that prove it.

Every ``jobs`` argument is pinned to 1: the benchmark never uses more
cores than one, whatever the host has. See README.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.compiler import XarTrekCompiler
from repro.core import SystemMode, build_system, spec_for
from repro.core.cohort import ArrivalLaw, CohortSpec
from repro.faults import (
    SHED_REASONS,
    BrownoutCriteria,
    FaultPlan,
    FaultSpec,
    OverloadConfig,
    ResilienceConfig,
    run_chaos,
)
from repro.fleet import FleetConfig, FleetDeployment
from repro.traffic import SLOTarget, SpikeWindow, TrafficSpec, generate_trace
from repro.workloads import PAPER_BENCHMARKS

#: The full benchmark pool, in a fixed order.
POOL = tuple(sorted(set(PAPER_BENCHMARKS)))


@dataclass
class Outcome:
    """What one repetition produced, read after the timed section."""

    #: Simulated kernel invocations completed in the timed section
    #: (the denominator of ``host_us_per_call``).
    calls: int
    #: Clients the workload attempted.
    attempted: int
    #: Conservation breaches, one entry per failing client or check.
    failures: list[str]
    #: Run-record lines; their checksum proves replay identity.
    lines: list[str]
    #: Client latencies (completion - arrival), simulated seconds, of
    #: clients that completed every call.
    latencies: list[float]
    #: Clients that completed every call and met their deadline.
    good: int
    #: Count-type per-layer metrics read from public state.
    counts: dict[str, float] = field(default_factory=dict)
    #: Host times the program measured itself (run_chaos legs).
    times: dict[str, float] = field(default_factory=dict)

    @property
    def checksum(self) -> str:
        digest = hashlib.sha256()
        for line in self.lines:
            digest.update(line.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()[:16]


def record_lines(records) -> list[str]:
    """Run-record lines in the ``repro bench`` checksum format."""
    return [
        f"{rec.app},{rec.start_s:.9f},{rec.end_s:.9f},{rec.calls_completed},"
        f"{rec.migrations},{','.join(str(t) for t in rec.targets)}"
        for rec in records
    ]


def _series(snapshot: dict, name: str) -> list[dict]:
    for family in snapshot["metrics"]:
        if family["name"] == name:
            return family["series"]
    return []


def _total(snapshot: dict, name: str, key: str = "value") -> float:
    return sum(series[key] for series in _series(snapshot, name))


def _by_label(snapshot: dict, name: str, label: str) -> dict[str, float]:
    return {
        series["labels"][label]: series["value"]
        for series in _series(snapshot, name)
    }


def _registry_counts(snapshots: list[dict]) -> dict[str, float]:
    """Scheduler, XRT and registry-size counts summed over registries."""
    counts = {
        "core.decisions.x86": 0.0,
        "core.decisions.arm": 0.0,
        "core.decisions.fpga": 0.0,
        "core.threshold_updates": 0.0,
        "core.scheduler_requests": 0.0,
        "xrt.kernel_runs": 0.0,
        "xrt.reconfig_started": 0.0,
        "metrics.series": 0.0,
    }
    skipped = 0.0
    for snap in snapshots:
        for target, value in _by_label(snap, "scheduler_decisions_total", "target").items():
            counts[f"core.decisions.{target}"] += value
        counts["core.threshold_updates"] += _total(snap, "threshold_updates_total")
        counts["core.scheduler_requests"] += _total(snap, "scheduler_requests_total")
        counts["xrt.kernel_runs"] += _total(snap, "fpga_kernel_run_seconds", "count")
        counts["xrt.reconfig_started"] += _total(snap, "fpga_reconfigurations_started_total")
        skipped += _total(snap, "fpga_reconfigurations_skipped_total")
        counts["metrics.series"] += sum(len(f["series"]) for f in snap["metrics"])
    attempts = counts["xrt.reconfig_started"] + skipped
    counts["xrt.reconfig_hit_ratio"] = skipped / attempts if attempts else 0.0
    return counts


def _hardware_counts(snapshots: list[dict]) -> dict[str, float]:
    """Processor-sharing load aggregates from ``load_snapshot()``."""
    return {
        "hardware.x86_load_mean": float(
            np.mean([s["x86"]["time_weighted_mean"] for s in snapshots])
        ),
        "hardware.x86_load_updates": sum(s["x86"]["updates"] for s in snapshots),
        "hardware.arm_load_updates": sum(s["arm"]["updates"] for s in snapshots),
    }


def _sim_counts(sim) -> dict[str, float]:
    deferred = sim.deferred_allocations + sim.deferred_reuses
    return {
        "sim.events": sim.events_processed,
        "sim.deferred_reuse_ratio": sim.deferred_reuses / deferred if deferred else 0.0,
    }


def _check_closed_loop(records, expected_calls: int, failures: list[str]) -> None:
    """Every closed-loop client completed all of its calls, once."""
    for index, rec in enumerate(records):
        if not rec.finished or rec.calls_completed != expected_calls:
            failures.append(
                f"client {index} ({rec.app}): {rec.calls_completed}/"
                f"{expected_calls} calls, end {rec.end_s}"
            )
        elif rec.shed_reason is not None:
            failures.append(f"client {index} ({rec.app}): shed ({rec.shed_reason})")


def balanced_mix(rng, clients: int) -> list[str]:
    """``clients`` applications, the pool's apps in equal shares, in a
    seeded order. The seed moves arrival times and order, not the mix:
    a multinomial draw of apps would shift the latency percentiles from
    seed to seed by more than any bound could tolerate."""
    apps = [POOL[index % len(POOL)] for index in range(clients)]
    return [apps[index] for index in rng.permutation(clients)]


def _compile(apps, spans) -> None:
    # build_system memoizes compilation per process, so a deployment
    # after the first never compiles. Each set-up compiles the
    # application set afresh to keep that cost measured.
    with spans.span("compiler.compile"):
        XarTrekCompiler().compile(spec_for(apps))


class PercallScale:
    """Closed-loop XAR_TREK clients on one deployment under MG-B load."""

    name = "percall_scale"
    subruns = 4
    clients = 1000
    calls = 3
    background = 50
    stagger_s = 30.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, spans):
        _compile(POOL, spans)
        with spans.span("core.build_system"):
            runtime = build_system(POOL, seed=self.seed)
        with spans.span("bench.inputs"):
            rng = np.random.default_rng(self.seed)
            clients = [
                (app, float(rng.uniform(0.0, self.stagger_s)), int(rng.integers(2**31)))
                for app in balanced_mix(rng, self.clients)
            ]
        return runtime, clients

    def run(self, state, spans):
        runtime, clients = state
        with spans.span("core.launch_background"):
            load = runtime.launch_background(self.background)
        handles = []
        for app, delay, seed in clients:
            with spans.span("core.launch"):
                handles.append(
                    runtime.launch(
                        app, seed=seed, mode=SystemMode.XAR_TREK,
                        calls=self.calls, delay_s=delay,
                    )
                )
        with spans.span("core.wait_all"):
            records = runtime.wait_all(handles)
        load.stop()
        return runtime, records

    def summarize(self, raw) -> Outcome:
        runtime, records = raw
        failures: list[str] = []
        if len(records) != self.clients:
            failures.append(f"{len(records)} records for {self.clients} clients")
        _check_closed_loop(records, self.calls, failures)
        snap = runtime.metrics.snapshot()
        counts = {
            **_sim_counts(runtime.platform.sim),
            **_hardware_counts([runtime.load_snapshot()]),
            **_registry_counts([snap]),
            "popcorn.migrations": sum(rec.migrations for rec in records),
            "popcorn.page_transfers": runtime.dsm.stats.page_transfers,
            "popcorn.bytes_transferred": runtime.dsm.stats.bytes_transferred,
        }
        requests = counts["core.scheduler_requests"]
        calls = sum(rec.calls_completed for rec in records)
        if requests != calls:
            failures.append(f"{requests:.0f} scheduler requests for {calls} calls")
        done = [rec for rec in records if rec.finished and rec.calls_completed == self.calls]
        lines = [f"{self.name}:{self.clients}:{self.background}:{self.seed}"]
        lines.extend(record_lines(records))
        return Outcome(
            calls=calls,
            attempted=self.clients,
            failures=failures,
            lines=lines,
            latencies=[rec.elapsed_s for rec in done],
            good=len(done),
            counts=counts,
        )


class FlashBrownout:
    """Open-loop interactive traffic with repeated flash crowds, faults
    inside every spike, and the overload guard armed."""

    name = "flash_brownout"
    subruns = 10
    apps = ("digit.500", "facedet.320", "facedet.640")
    periods = 5
    period_s = 30.0
    base_rate_per_s = 3.0
    spike_at_s = 10.0
    spike_s = 5.0
    spike_factor = 10.0
    deadline_s = 15.0
    background = 10
    goodput_floor = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.horizon_s = self.periods * self.period_s
        # The overload guard of the flash_crowd bench scenario:
        # deadline-aware shedding is the working lever, the ladder
        # rungs are a backstop for the catastrophic regime.
        self.config = ResilienceConfig(
            overload=OverloadConfig(
                x86_only_enter_load=70.0,
                x86_only_exit_load=40.0,
                shed_enter_load=120.0,
                shed_exit_load=60.0,
                deadline_load_cost_s=0.25,
            )
        )
        self.slo = tuple(
            SLOTarget(app, p99_latency_s=self.deadline_s, goodput_floor=0.3)
            for app in self.apps
        )
        # The same faults strike inside every spike: the FPGA drops off
        # the bus mid-surge and scheduler replies crawl right after.
        starts = [k * self.period_s for k in range(self.periods)]
        self.plan = FaultPlan(
            specs=tuple(
                spec
                for start in starts
                for spec in (
                    FaultSpec(at_s=start + 11.0, kind="device_crash", duration_s=3.0),
                    FaultSpec(
                        at_s=start + 12.0, kind="server_slow",
                        duration_s=2.0, factor=20.0,
                    ),
                )
            ),
            seed=0,
        )
        self.spec = TrafficSpec(
            apps=self.apps,
            base_rate_per_s=self.base_rate_per_s,
            horizon_s=self.horizon_s,
            diurnal_period_s=self.period_s,
            diurnal_amplitude=0.4,
            spikes=tuple(
                SpikeWindow(
                    at_s=start + self.spike_at_s,
                    duration_s=self.spike_s,
                    factor=self.spike_factor,
                )
                for start in starts
            ),
            calls_alpha=1.5,
            calls_max=4,
            deadline_s=self.deadline_s,
            seed=seed,
        )

    def setup(self, spans):
        # run_chaos deploys both of its legs itself, inside the timed
        # section; the set-up is the compile and the trace.
        _compile(self.apps, spans)
        with spans.span("traffic.generate_trace"):
            trace = generate_trace(self.spec)
        return trace

    def run(self, trace, spans):
        with spans.span("faults.run_chaos"):
            report = run_chaos(
                plan=self.plan,
                seed=self.seed,
                config=self.config,
                jobs=1,
                background=self.background,
                traffic=trace,
                brownout=BrownoutCriteria(goodput_floor=self.goodput_floor),
                slo=self.slo,
                horizon_s=self.horizon_s,
            )
        return trace, report

    def summarize(self, raw) -> Outcome:
        trace, report = raw
        # ChaosReport.ok is the conservation contract (nobody
        # unaccounted, admitted clients identical to the fault-free
        # leg) plus the goodput floor. The floor is a policy outcome
        # (five-period sub-runs land between 0.42 and 0.83) that
        # sim_goodput reports. Only the conservation part is a check.
        failures = [f"mismatch: {m}" for m in report.mismatches]
        if report.unaccounted:
            failures.append(f"{report.unaccounted} clients unaccounted")
        # The chaos leg's run records, in trace order, as report lines:
        # app,start,end,calls,migrations,targets...[,shed=reason].
        rows = report.lines[1 : 1 + report.clients]
        if report.clients != len(trace) or len(rows) != len(trace):
            failures.append(f"{len(rows)} records for {len(trace)} clients")
        latencies: list[float] = []
        good = calls = migrations = 0
        shed = {reason: 0 for reason in SHED_REASONS}
        served = {"x86": 0, "arm": 0, "fpga": 0}
        for index, (row, entry) in enumerate(zip(rows, trace)):
            fields = row.split(",")
            start, end, done = float(fields[1]), float(fields[2]), int(fields[3])
            migrations += int(fields[4])
            targets = [f for f in fields[5:] if f and not f.startswith("shed=")]
            for target in targets:
                served[target] += 1
            calls += done
            reason = next((f[5:] for f in fields[5:] if f.startswith("shed=")), None)
            if reason is not None:
                shed[reason] += 1
            elif not math.isnan(end) and done == entry.calls:
                latencies.append(end - start)
                if end - start <= entry.deadline_s:
                    good += 1
            else:
                failures.append(f"client {index} ({entry.app}): neither completed nor shed")
        if {k: v for k, v in shed.items() if v} != {k: v for k, v in report.shed.items() if v}:
            failures.append(f"shed accounting {shed} != report {report.shed}")
        counts = {
            "sim.events": report.events + report.baseline_events,
            "core.decisions.x86": served["x86"],
            "core.decisions.arm": served["arm"],
            "core.decisions.fpga": served["fpga"],
            "xrt.kernel_runs": served["fpga"],
            "popcorn.migrations": migrations,
            "faults.injected": report.faults_injected,
            "faults.retries": report.retries,
            "faults.fallbacks": sum(report.fallbacks.values()),
            "faults.quarantines": report.quarantines,
            "traffic.clients": trace.clients,
            "traffic.calls": trace.total_calls,
        }
        for reason, count in shed.items():
            counts[f"faults.shed.{reason}"] = count
        return Outcome(
            calls=calls,
            attempted=len(trace),
            failures=failures,
            lines=list(report.lines),
            latencies=latencies,
            good=good,
            counts=counts,
            times={
                "faults.baseline_leg_s": report.baseline_wall_s,
                "faults.chaos_leg_s": report.wall_s,
            },
        )


class FleetCohort:
    """A 10-node fleet: a sticky per-client leg, then a sharded,
    vectorized cohort leg."""

    name = "fleet_cohort"
    subruns = 3
    nodes = 10
    perclient = 600
    perclient_calls = 2
    stagger_s = 20.0
    #: MG-B processes on every other node during the per-client leg.
    #: An uneven fleet is what makes gossip rebalancing and cross-node
    #: working-set migrations fire (with even load they never do), and
    #: contention spreads the per-client latencies, which on an idle
    #: fleet sit on a few exact values.
    perclient_background = 40
    cohort_clients = 16_000
    cohort_calls = 4
    background = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, spans):
        _compile(POOL, spans)
        with spans.span("fleet.FleetDeployment"):
            fleet = FleetDeployment(
                FleetConfig(nodes=self.nodes, apps=POOL, seed=self.seed)
            )
        with spans.span("bench.inputs"):
            rng = np.random.default_rng(self.seed)
            # A third as many sticky keys as runs: repeat clients are
            # what make gossip rebalancing and cross-node working-set
            # migrations fire.
            keys = self.perclient // 3
            clients = [
                (
                    app,
                    f"client{index % keys}",
                    float(rng.uniform(0.0, self.stagger_s)),
                    int(rng.integers(2**31)),
                )
                for index, app in enumerate(balanced_mix(rng, self.perclient))
            ]
            laws = ("uniform", "poisson", "staggered")
            per_app = self.cohort_clients // len(POOL)
            specs = [
                CohortSpec(
                    app,
                    per_app + (self.cohort_clients - per_app * len(POOL) if i == 0 else 0),
                    calls=self.cohort_calls,
                    arrival=ArrivalLaw(
                        laws[i % len(laws)],
                        start=float(rng.uniform(0.0, 5.0)),
                        span=30.0,
                    ),
                    seed=int(rng.integers(2**32)),
                )
                for i, app in enumerate(POOL)
            ]
        return fleet, clients, specs

    def run(self, state, spans):
        fleet, clients, specs = state
        loads = []
        for node in fleet.nodes[::2]:
            with spans.span("core.launch_background"):
                loads.append(node.runtime.launch_background(self.perclient_background))
        handles = []
        for app, key, delay, seed in clients:
            with spans.span("fleet.launch"):
                handles.append(
                    fleet.launch(
                        app, client=key, seed=seed, mode=SystemMode.XAR_TREK,
                        calls=self.perclient_calls, delay_s=delay,
                    )
                )
        with spans.span("fleet.wait_all"):
            records = fleet.wait_all(handles)
        for load in loads:
            load.stop()
        with spans.span("fleet.run_cohorts"):
            cohorts = fleet.run_cohorts(specs, background=self.background, jobs=1)
        fleet.stop()
        return fleet, records, cohorts

    def summarize(self, raw) -> Outcome:
        fleet, records, cohorts = raw
        failures: list[str] = []
        if len(records) != self.perclient:
            failures.append(f"{len(records)} records for {self.perclient} clients")
        _check_closed_loop(records, self.perclient_calls, failures)
        if sum(cohorts.assigned_per_node) != self.cohort_clients:
            failures.append(
                f"per-node assignments sum to {sum(cohorts.assigned_per_node)}, "
                f"not {self.cohort_clients}"
            )
        if cohorts.clients != self.cohort_clients:
            failures.append(f"cohort leg ran {cohorts.clients} of {self.cohort_clients}")
        # Latency percentiles come from the per-client leg alone. The
        # cohort model has no queueing: each cohort client's latency is
        # one of a few exact values per (app, target) pattern, so a
        # percentile over them jumps between those values as the seed
        # shifts the decision mix by a fraction of a percent.
        latencies = [rec.elapsed_s for rec in records]
        good = sum(
            1 for rec in records
            if rec.finished and rec.calls_completed == self.perclient_calls
        )
        cohort_calls = 0
        for index, run in cohorts.node_results:
            for result in run.cohorts:
                waited = result.completions - result.arrivals
                bad = int(np.count_nonzero(~np.isfinite(waited) | (waited < 0)))
                if bad:
                    failures.append(f"node{index} cohort {result.index}: {bad} clients unfinished")
                good += result.completions.size - bad
                cohort_calls += result.served.size

        snapshots = [node.runtime.metrics.snapshot() for node in fleet.nodes]
        counts = {
            **_sim_counts(fleet.sim),
            **_hardware_counts([node.runtime.load_snapshot() for node in fleet.nodes]),
            **_registry_counts(snapshots + [fleet.metrics.snapshot()]),
            "popcorn.migrations": sum(rec.migrations for rec in records),
            "popcorn.page_transfers": sum(
                node.runtime.dsm.stats.page_transfers for node in fleet.nodes
            ),
            "popcorn.bytes_transferred": sum(
                node.runtime.dsm.stats.bytes_transferred for node in fleet.nodes
            ),
            "core.cohort_logical_events": cohorts.logical_events,
            "core.cohort_sim_events": cohorts.sim_events,
            "fleet.gossip_rounds": fleet.gossip.rounds,
            "fleet.cross_node_migrations": fleet.router.cross_node_migrations,
            "fleet.fabric_page_transfers": fleet.dsm.stats.page_transfers,
            "fleet.assignment_skew": cohorts.assignment_skew(),
        }
        counts["sim.events"] += cohorts.sim_events
        lines = [f"{self.name}:{self.nodes}:{self.perclient}:{self.cohort_clients}:{self.seed}"]
        lines.extend(record_lines(records))
        lines.extend(cohorts.lines())
        return Outcome(
            calls=sum(rec.calls_completed for rec in records) + cohort_calls,
            attempted=self.perclient + self.cohort_clients,
            failures=failures,
            lines=lines,
            latencies=latencies,
            good=good,
            counts=counts,
        )


class Pooled:
    """One repetition of a workload: ``cls.subruns`` independent
    deployments, seeded from the benchmark seed, pooled into one
    outcome.

    One deployment's simulated outcomes swing from seed to seed:
    Algorithm 1's thresholds and the overload guard settle into
    different regimes (a flash-crowd period is served at about 35% or
    about 85% goodput, rarely in between). Pooling independent
    deployments narrows the seed-to-seed spread of the percentiles and
    of the host time per call to within the bounds.
    """

    def __init__(self, cls, seed: int):
        self.name = cls.name
        children = np.random.SeedSequence(seed).spawn(cls.subruns)
        self.parts = [cls(int(child.generate_state(1)[0])) for child in children]

    def setup(self, spans):
        return [part.setup(spans) for part in self.parts]

    def run(self, states, spans):
        return [part.run(state, spans) for part, state in zip(self.parts, states)]

    def summarize(self, raws) -> Outcome:
        outcomes = [part.summarize(raw) for part, raw in zip(self.parts, raws)]
        pooled = Outcome(calls=0, attempted=0, failures=[], lines=[], latencies=[], good=0)
        for index, outcome in enumerate(outcomes):
            pooled.calls += outcome.calls
            pooled.attempted += outcome.attempted
            pooled.good += outcome.good
            pooled.failures.extend(f"subrun {index}: {f}" for f in outcome.failures)
            pooled.lines.extend(outcome.lines)
            pooled.latencies.extend(outcome.latencies)
            for into, values in ((pooled.counts, outcome.counts), (pooled.times, outcome.times)):
                for name, value in values.items():
                    into[name] = into.get(name, 0) + value
        # Ratios, means and skews are averaged over the sub-runs, not summed.
        for name in pooled.counts:
            if name.endswith(("_ratio", "_mean", "_skew")):
                pooled.counts[name] /= len(outcomes)
        return pooled


WORKLOADS = {cls.name: cls for cls in (PercallScale, FlashBrownout, FleetCohort)}
