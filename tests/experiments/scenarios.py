"""The nine seeded scenarios whose output checksums are committed goldens.

Each scenario is a figure- or stress-shaped workload that returns the
lines its checksum folds: run records, cohort lines, chaos report
lines. Nothing here is timed; how fast the simulator runs is measured
by ``perfbench/``. What is pinned is *what* it computes (the checksum)
and *how much work* it does to compute it (:func:`work_counters`,
exact integer totals read from public counters).

``quick`` shrinks the per-client scenarios for the replay tests; the
goldens run every scenario full size at seed 0.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from repro.core import SystemMode, build_system
from repro.experiments.harness import run_application_set, sample_application_set
from repro.experiments.sweep import (
    cells_for_sets,
    results_checksum,
    run_cells,
    sweep_metrics,
)
from repro.experiments.throughput import measure_throughput
from repro.hardware.sharing import FairShareServer
from repro.metrics import MetricsRegistry
from repro.popcorn.dsm import DSM
from repro.sim import Simulator
from repro.workloads import PAPER_BENCHMARKS

#: High-load process target of Figure 5 (more than the testbed's 102 cores).
HIGH_LOAD_PROCESSES = 120

#: The mixed benchmark pool, sorted (one cohort per app).
APPS = tuple(sorted(set(PAPER_BENCHMARKS)))


def checksum(lines: Sequence[str]) -> str:
    """First 16 hex digits of the sha256 over NUL-terminated lines."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def record_lines(records) -> list[str]:
    return [
        f"{rec.app},{rec.start_s:.9f},{rec.end_s:.9f},{rec.calls_completed},"
        f"{rec.migrations},{','.join(str(t) for t in rec.targets)}"
        for rec in records
    ]


# -- work budget ---------------------------------------------------------

#: The classes whose instances :func:`work_counters` collects.
_COUNTED = (Simulator, FairShareServer, DSM, MetricsRegistry)


def _histogram_observations(registry: MetricsRegistry) -> int:
    return sum(
        series["count"]
        for family in registry.snapshot()["metrics"]
        if family["type"] == "histogram"
        for series in family["series"]
    )


@contextmanager
def work_counters():
    """Total the work of every simulator, processor-sharing server, DSM
    and metrics registry built inside the block.

    Yields a dict that is filled in on exit with integer totals:
    simulator events and defer allocations, processor-sharing load
    updates and completion wakeups (stale ones included), DSM page
    transfers and control messages, and histogram observations. Every
    value is read from public state after the block; instances are
    found by wrapping the four constructors for its duration. The
    sweep executor's process-wide registry times cells on the host
    clock, so it is built beforehand and never counted.
    """
    sweep_metrics()
    built: dict[type, list] = {cls: [] for cls in _COUNTED}
    originals = {cls: cls.__init__ for cls in _COUNTED}

    def collecting(cls):
        original = originals[cls]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built[cls].append(self)

        return __init__

    for cls in _COUNTED:
        cls.__init__ = collecting(cls)
    totals: dict[str, int] = {}
    try:
        yield totals
    finally:
        for cls, original in originals.items():
            cls.__init__ = original
    sims, servers = built[Simulator], built[FairShareServer]
    dsms, registries = built[DSM], built[MetricsRegistry]
    totals.update(
        events=sum(sim.events_processed for sim in sims),
        deferred_allocations=sum(sim.deferred_allocations for sim in sims),
        ps_updates=sum(server.load_snapshot()["updates"] for server in servers),
        ps_wakeups=sum(server.wakeups for server in servers),
        dsm_page_transfers=sum(dsm.stats.page_transfers for dsm in dsms),
        dsm_control_messages=sum(dsm.stats.control_messages for dsm in dsms),
        histogram_observations=sum(map(_histogram_observations, registries)),
    )


# -- per-client shapes ---------------------------------------------------

def _run_sets(configs, seed: int) -> list[str]:
    """One seeded application set per (size, background, mode) config."""
    lines: list[str] = []
    rng = np.random.default_rng(seed)
    for index, (size, background, mode) in enumerate(configs):
        apps = sample_application_set(rng, size)
        runtime = build_system(sorted(set(apps)), seed=seed + index)
        outcome = run_application_set(
            apps, mode, background=background, seed=seed + index, runtime=runtime
        )
        lines.append(f"{mode.value}:{size}:{background}")
        lines.extend(record_lines(outcome.records))
    return lines


def fig3_low_load(seed: int = 0, quick: bool = False) -> list[str]:
    """Figure-3 shape: small sets, no background, all four systems."""
    sizes = (2,) if quick else (2, 4)
    modes = (SystemMode.VANILLA_X86, SystemMode.XAR_TREK)
    if not quick:
        modes += (SystemMode.ALWAYS_FPGA, SystemMode.VANILLA_ARM)
    return _run_sets([(size, 0, mode) for size in sizes for mode in modes], seed)


def fig5_high_load(seed: int = 0, quick: bool = False) -> list[str]:
    """Figure-5 shape: 120 resident processes, sets of 5-25 apps."""
    if quick:
        sizes, modes, repeats = (10,), (SystemMode.XAR_TREK,), 1
    else:
        sizes = (5, 15, 25)
        modes = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
        repeats = 2
    configs = [
        (size, HIGH_LOAD_PROCESSES - size, mode)
        for _repeat in range(repeats)
        for size in sizes
        for mode in modes
    ]
    return _run_sets(configs, seed)


def fig6_throughput(seed: int = 0, quick: bool = False) -> list[str]:
    """Figure-6 shape: 60 s face-detection window over MG-B background."""
    backgrounds = (50,) if quick else (0, 50, 100)
    modes = (SystemMode.XAR_TREK,)
    if not quick:
        modes += (SystemMode.VANILLA_X86,)
    lines = []
    for background in backgrounds:
        for mode in modes:
            throughput = measure_throughput(mode, background, seed=seed)
            lines.append(f"{mode.value}:{background}:{throughput:.9f}")
    return lines


def report_sweep_cells(seed: int = 0, quick: bool = False) -> list:
    """The report-shaped Figure-5 cell grid."""
    if quick:
        sizes, modes, repeats = (5,), (SystemMode.XAR_TREK,), 2
    else:
        sizes = (5, 15, 25)
        modes = (SystemMode.VANILLA_X86, SystemMode.ALWAYS_FPGA, SystemMode.XAR_TREK)
        repeats = 3
    return [
        cell
        for size in sizes
        for cell in cells_for_sets(
            size, modes, background=HIGH_LOAD_PROCESSES - size,
            repeats=repeats, seed=seed,
        )
    ]


def report_sweep(seed: int = 0, quick: bool = False) -> list[str]:
    """The report grid run serially through the sweep executor."""
    cells = report_sweep_cells(seed, quick)
    serial = run_cells(cells, jobs=1)
    lines = [f"report_sweep:{len(cells)}:{results_checksum(serial.results)}"]
    for result in serial.results:
        lines.extend(record_lines(result.outcome.records))
    return lines


def scale_workload(seed: int, n_clients: int, background: int):
    """N staggered XAR_TREK clients over the full benchmark pool on one
    deployment. Returns (runtime, records)."""
    pool = tuple(PAPER_BENCHMARKS)
    rng = np.random.default_rng(seed)
    runtime = build_system(sorted(set(pool)), seed=seed)
    load = runtime.launch_background(background)
    handles = []
    for index in range(n_clients):
        app = pool[int(rng.integers(len(pool)))]
        delay = float(rng.uniform(0.0, 30.0))
        handles.append(
            runtime.launch(
                app, seed=seed + index, mode=SystemMode.XAR_TREK, calls=3,
                delay_s=delay,
            )
        )
    records = runtime.wait_all(handles)
    load.stop()
    return runtime, records


def scale_stress(seed: int = 0, quick: bool = False) -> list[str]:
    """1,000 clients (250 quick) with DSM-heavy migration churn."""
    n_clients = 250 if quick else 1000
    background = 25 if quick else 50
    _runtime, records = scale_workload(seed, n_clients, background)
    return [f"scale_stress:{n_clients}:{background}", *record_lines(records)]


# -- cohort, chaos and fleet shapes ----------------------------------------

def cohort_specs(rng, apps, n_clients: int, calls: int) -> list:
    """``n_clients`` split evenly over ``apps`` (the remainder goes to
    the first), one cohort per app cycling through the uniform, poisson
    and staggered arrival laws. Per app it draws the arrival start, then
    the cohort seed, from ``rng``; the checksums depend on that order."""
    from repro.core.cohort import ArrivalLaw, CohortSpec

    laws = ("uniform", "poisson", "staggered")
    per_app = n_clients // len(apps)
    specs = []
    for index, app in enumerate(apps):
        clients = per_app + (n_clients - per_app * len(apps) if index == 0 else 0)
        specs.append(
            CohortSpec(
                app,
                clients,
                calls=calls,
                arrival=ArrivalLaw(
                    laws[index % len(laws)],
                    start=float(rng.uniform(0.0, 5.0)),
                    span=30.0,
                ),
                seed=int(rng.integers(2**32)),
            )
        )
    return specs


#: Clients and background of the cohort_stress shape.
COHORT_CLIENTS = 10_000
COHORT_BACKGROUND = 50


def cohort_stress_result(seed: int = 0):
    """10,000 clients through the vectorized cohort model (one cohort
    per app); returns the :class:`CohortRunResult`."""
    specs = cohort_specs(np.random.default_rng(seed), APPS, COHORT_CLIENTS, calls=5)
    runtime = build_system(APPS, seed=seed)
    return runtime.run_cohorts(specs, background=COHORT_BACKGROUND)


def cohort_stress(seed: int = 0, quick: bool = False) -> list[str]:
    """The cohort shape; O(cohorts), so ``quick`` does not shrink it."""
    result = cohort_stress_result(seed)
    return [f"cohort_stress:{COHORT_CLIENTS}:{COHORT_BACKGROUND}", *result.lines()]


def chaos_stress(seed: int = 0, quick: bool = False) -> list[str]:
    """The scale_stress fleet under the seeded default fault plan; every
    client must complete with results identical to the fault-free leg."""
    from repro.faults import default_plan, run_chaos

    report = run_chaos(plan=default_plan(seed), seed=seed, quick=quick, jobs=1)
    assert report.ok, "chaos_stress broke graceful degradation:\n" + report.to_text()
    return report.lines


def fleet_stress(seed: int = 0, quick: bool = False) -> list[str]:
    """A 10-node fleet: a sticky per-client leg (120 runs, 40 quick) on
    the shared clock, then 10,000 cohort clients sharded across it."""
    from repro.fleet import FleetConfig, FleetDeployment

    n_nodes, n_cohort_clients = 10, 10_000
    per_client = 40 if quick else 120
    fleet = FleetDeployment(FleetConfig(nodes=n_nodes, apps=APPS, seed=seed))
    rng = np.random.default_rng(seed)
    keys = max(1, per_client // 3)
    handles = []
    for index in range(per_client):
        app = APPS[int(rng.integers(len(APPS)))]
        handles.append(
            fleet.launch(
                app,
                client=f"client{index % keys}",
                seed=seed + index,
                mode=SystemMode.XAR_TREK,
                calls=2,
                delay_s=float(rng.uniform(0.0, 20.0)),
            )
        )
    records = fleet.wait_all(handles)
    specs = cohort_specs(rng, APPS, n_cohort_clients, calls=4)
    cohorts = fleet.run_cohorts(specs, background=20, jobs=1)
    fleet.stop()
    return [
        f"fleet_stress:{n_nodes}:{per_client}:{n_cohort_clients}",
        *record_lines(records),
        *cohorts.lines(),
    ]


#: Flash-crowd shape (shared with benchmarks/flash_crowd_plan.json).
FLASH_HORIZON_S = 30.0
FLASH_DEADLINE_S = 15.0
FLASH_GOODPUT_FLOOR = 0.5
#: Resident background processes during the crowd (kept below the
#: ladder's exit thresholds so brownout can actually clear).
FLASH_BACKGROUND = 10


def flash_crowd_plan():
    """The faults inside the spike window: the FPGA drops off the bus
    mid-surge and the scheduler's replies crawl right after."""
    from repro.faults import FaultPlan, FaultSpec

    return FaultPlan(
        specs=(
            FaultSpec(at_s=11.0, kind="device_crash", duration_s=3.0),
            FaultSpec(at_s=12.0, kind="server_slow", duration_s=2.0, factor=20.0),
        ),
        seed=0,
    )


def flash_crowd_inputs(seed: int = 0, quick: bool = False):
    """(trace, plan, protected config, SLO targets) of the flash crowd.

    The crowd calls the interactive tier (face detection, digit
    recognition), whose latency SLOs a crowd can violate. The guard's
    working lever is deadline-aware shedding with a load-proportional
    completion estimate; the ladder rungs sit high as a backstop.
    """
    from repro.faults import OverloadConfig, ResilienceConfig
    from repro.traffic import SLOTarget, SpikeWindow, TrafficSpec, generate_trace

    spec = TrafficSpec(
        apps=("digit.500", "facedet.320", "facedet.640"),
        base_rate_per_s=2.0 if quick else 3.0,
        horizon_s=FLASH_HORIZON_S,
        diurnal_period_s=FLASH_HORIZON_S,
        diurnal_amplitude=0.4,
        spikes=(SpikeWindow(at_s=10.0, duration_s=5.0, factor=10.0),),
        calls_alpha=1.5,
        calls_max=4,
        deadline_s=FLASH_DEADLINE_S,
        seed=seed,
    )
    protected = ResilienceConfig(
        overload=OverloadConfig(
            x86_only_enter_load=70.0,
            x86_only_exit_load=40.0,
            shed_enter_load=120.0,
            shed_exit_load=60.0,
            deadline_load_cost_s=0.25,
        )
    )
    slo = tuple(
        SLOTarget(app, p99_latency_s=FLASH_DEADLINE_S, goodput_floor=0.3)
        for app in spec.apps
    )
    return generate_trace(spec), flash_crowd_plan(), protected, slo


def flash_crowd(seed: int = 0, quick: bool = False) -> list[str]:
    """A traced flash crowd over a device crash and a slow scheduler,
    replayed with the overload guard armed (it must hold the brownout
    contract and every SLO) and with it off (at seed 0 that control leg
    must violate p99, or the protected pass proves nothing)."""
    from repro.faults import BrownoutCriteria, run_chaos

    trace, plan, protected, slo = flash_crowd_inputs(seed, quick)
    common = dict(
        plan=plan, seed=seed, jobs=1, background=FLASH_BACKGROUND,
        traffic=trace, slo=slo, horizon_s=FLASH_HORIZON_S,
    )
    report = run_chaos(
        config=protected,
        brownout=BrownoutCriteria(goodput_floor=FLASH_GOODPUT_FLOOR),
        **common,
    )
    assert report.ok, "flash_crowd broke the brownout contract:\n" + report.to_text()
    assert not any(score["violations"] for score in report.slo.values()), (
        "flash_crowd violated SLOs with protection armed:\n" + report.to_text()
    )
    unprotected = run_chaos(config=None, **common)
    violated = [
        app
        for app, score in unprotected.slo.items()
        if "p99_latency" in score["violations"]
    ]
    assert violated or seed != 0, (
        "flash_crowd's unprotected control leg met every p99 SLO:\n"
        + unprotected.to_text()
    )
    return report.lines


#: name -> scenario(seed, quick) -> checksum lines.
SCENARIOS: dict[str, Callable[..., list[str]]] = {
    "fig3_low_load": fig3_low_load,
    "fig5_high_load": fig5_high_load,
    "fig6_throughput": fig6_throughput,
    "report_sweep": report_sweep,
    "scale_stress": scale_stress,
    "cohort_stress": cohort_stress,
    "chaos_stress": chaos_stress,
    "fleet_stress": fleet_stress,
    "flash_crowd": flash_crowd,
}
