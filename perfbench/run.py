"""The repository benchmark: host time per simulated invocation, plus the
simulated outcomes, on three workloads, with per-layer attribution.

    python3 perfbench/run.py --workload percall_scale --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/``. With ``--trace 0`` the run is untraced and reports the
end-to-end metrics. With ``--trace 1`` it also runs the workload with
spans around every public call, then under cProfile, and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed, 1 when a check failed
(the result line is still printed), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "host_us_per_call": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_tail_s": "sim_s",
    "sim_goodput": "ratio",
}

#: Per-layer host times, from spans around public calls: metric ->
#: the span names whose durations it sums.
SPAN_TIMES = {
    "sim.run_s": ("core.wait_all", "fleet.wait_all"),
    "core.launch_s": ("core.launch", "core.launch_background"),
    "core.cohort_s": ("fleet.run_cohorts",),
    "fleet.perclient_s": ("fleet.launch", "fleet.wait_all"),
    "traffic.generate_s": ("traffic.generate_trace",),
    "compiler.build_s": ("compiler.compile",),
}

#: Per-layer metrics read from public state and spans, name -> unit;
#: per_layer_units() adds the cProfile ones. A metric a workload does
#: not exercise reads 0 there.
PER_LAYER = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.deferred_reuse_ratio": "ratio",
    "hardware.x86_load_mean": "jobs",
    "hardware.x86_load_updates": "count",
    "hardware.arm_load_updates": "count",
    "core.launch_s": "s",
    "core.decisions.x86": "count",
    "core.decisions.arm": "count",
    "core.decisions.fpga": "count",
    "core.threshold_updates": "count",
    "core.scheduler_requests": "count",
    "core.cohort_s": "s",
    "core.cohort_logical_events": "count",
    "core.cohort_sim_events": "count",
    "popcorn.migrations": "count",
    "popcorn.page_transfers": "count",
    "popcorn.bytes_transferred": "bytes",
    "xrt.kernel_runs": "count",
    "xrt.reconfig_started": "count",
    "xrt.reconfig_hit_ratio": "ratio",
    "metrics.series": "count",
    "faults.baseline_leg_s": "s",
    "faults.chaos_leg_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.fallbacks": "count",
    "faults.quarantines": "count",
    "faults.shed.brownout": "count",
    "faults.shed.queue_full": "count",
    "faults.shed.deadline": "count",
    "faults.shed.deadline_expired": "count",
    "traffic.generate_s": "s",
    "traffic.clients": "count",
    "traffic.calls": "count",
    "fleet.perclient_s": "s",
    "fleet.gossip_rounds": "count",
    "fleet.cross_node_migrations": "count",
    "fleet.fabric_page_transfers": "count",
    "fleet.assignment_skew": "count",
    "compiler.build_s": "s",
}

#: Percentiles the tail metric chooses from, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def rank(samples: int, q: float) -> int:
    """Index of the nearest-rank ``q``-th percentile among ``samples``
    sorted values (exact, no interpolation)."""
    return max(0, math.ceil(q / 100.0 * samples) - 1)


def tail(samples: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples
    beyond it (the median when there are too few)."""
    for q in TAIL_PERCENTILES:
        if samples - 1 - rank(samples, q) >= 10:
            return q
    return 50.0


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Bench:
    """Repetitions of one workload and the samples they produce."""

    def __init__(self, workload, spans):
        self.workload = workload
        self.spans = spans
        self.reps = 0
        self.reference = None
        self.failures: list[str] = []

    def rep(self, profile=None):
        """One set-up plus one timed section; returns (setup_s,
        us_per_call, outcome)."""
        spans = self.spans
        spans.run_id = f"rep{self.reps}"
        self.reps += 1
        gc.collect()
        started = time.perf_counter()
        with spans.span("bench.setup"):
            state = self.workload.setup(spans)
        timed = time.perf_counter()
        if profile is not None:
            profile.enable()
        with spans.span("bench.timed"):
            raw = self.workload.run(state, spans)
        if profile is not None:
            profile.disable()
        ended = time.perf_counter()
        outcome = self.workload.summarize(raw)
        if self.reference is None:
            self.reference = outcome
            self.failures.extend(outcome.failures)
        elif outcome.checksum != self.reference.checksum:
            self.failures.append(
                f"{spans.run_id}: checksum {outcome.checksum} differs from "
                f"{self.reference.checksum} at the same seed"
            )
        if outcome.calls <= 0:
            fail(f"{self.workload.name} completed no invocations")
        return timed - started, (ended - timed) / outcome.calls * 1e6, outcome

    def phase(self, seconds: float, profiles=None):
        """Repeat until ``seconds`` have passed (at least once)."""
        setups, per_call, run_ids = [], [], []
        deadline = time.perf_counter() + seconds
        while not per_call or time.perf_counter() < deadline:
            profile = cProfile.Profile() if profiles is not None else None
            run_ids.append(f"rep{self.reps}")
            setup_s, us, _outcome = self.rep(profile)
            setups.append(setup_s)
            per_call.append(us)
            if profile is not None:
                profiles.append(profile)
        return setups, per_call, run_ids


def end_to_end(setups, per_call, outcome) -> tuple[dict, dict]:
    """End-to-end values, and how the tail percentile was chosen."""
    ordered = sorted(outcome.latencies) or [0.0]
    n = len(ordered)
    q = tail(n)
    values = {
        "host_us_per_call": statistics.median(per_call),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
        "sim_latency_p50_s": ordered[rank(n, 50.0)],
        "sim_latency_tail_s": ordered[rank(n, q)],
        "sim_goodput": outcome.good / outcome.attempted,
    }
    return values, {"percentile": q, "samples": n, "beyond": n - 1 - rank(n, q)}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, name -> unit, in report order."""
    import tracing

    units = dict(PER_LAYER)
    for layer in tracing.LAYERS + (tracing.OTHER,):
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.ncalls"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail(f"--seconds must be positive, got {args.seconds}")

    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        fail(
            f"refusing to run with {', '.join(knobs)} set: REPRO_* variables "
            "switch the simulator to reference paths or worker pools"
        )
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        fail(f"no simulator sources at {src}; run from the root of a checkout")
    sys.path.insert(0, src)

    import repro
    import tracing
    from scenarios import WORKLOADS, Pooled

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    units = per_layer_units()
    host = fingerprint()
    print(
        f"host: nproc={host['nproc']} platform={host['platform']} "
        f"python={host['python']} numpy={host['numpy']}"
    )
    spans = tracing.Spans(enabled=False)
    bench = Bench(Pooled(WORKLOADS[args.workload], args.seed), spans)
    # The warm-up repetition fills per-process caches (imports, the
    # compile memo) and is the reference the others must repeat.
    bench.rep()
    outcome = bench.reference

    per_layer = None
    if args.trace == 0:
        setups, per_call, _ids = bench.phase(args.seconds)
    else:
        # Thirds: untraced, spans only (per-layer host times), spans
        # under cProfile (self-time shares, call counts, overhead).
        third = args.seconds / 3.0
        setups, per_call, _ids = bench.phase(third)
        spans.enabled = True
        _s, _u, span_ids = bench.phase(third)
        profiles: list[cProfile.Profile] = []
        _s, profiled, _ids = bench.phase(third, profiles)
        per_layer = {name: 0 for name in units}
        per_layer.update(outcome.counts)
        for name, span_names in SPAN_TIMES.items():
            per_layer[name] = statistics.median(
                sum(spans.total(s, run_id) for s in span_names) for run_id in span_ids
            )
        per_layer.update(outcome.times)
        for layer, stats in tracing.layer_profile(
            profiles, os.path.dirname(repro.__file__)
        ).items():
            per_layer[f"{layer}.self_share"] = stats["self_share"]
            per_layer[f"{layer}.ncalls"] = stats["ncalls"]
        per_layer["trace.overhead_ratio"] = (
            statistics.median(profiled) / statistics.median(per_call) - 1.0
        )

    e2e, tail_info = end_to_end(setups, per_call, outcome)
    failed = len(bench.failures)
    print(
        f"workload: {args.workload} seed={args.seed} reps={bench.reps} "
        f"clients={outcome.attempted} calls={outcome.calls} checksum={outcome.checksum}"
    )
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>16.6g} {END_TO_END[name]}")
    print(f"  {'failed_share':<34} {failed / outcome.attempted:>16.6g} ratio")
    print(
        f"  (sim_latency_tail_s is p{tail_info['percentile']} of "
        f"{tail_info['samples']} completed clients, {tail_info['beyond']} beyond it)"
    )
    if per_layer is not None:
        for name, unit in units.items():
            print(f"  {name:<34} {per_layer[name]:>16.6g} {unit}")
    for problem in bench.failures[:20]:
        print(f"FAILED CHECK: {problem}")

    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(out, f"result_{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "host": host,
                "reps": bench.reps,
                "checksum": outcome.checksum,
                "attempted": outcome.attempted,
                "failed_share": failed / outcome.attempted,
                "failures": bench.failures,
                "tail": tail_info,
                "end_to_end": e2e,
                "samples": {"host_us_per_call": per_call, "setup_s": setups},
                "per_layer": per_layer,
            },
            handle,
            indent=1,
        )
    if per_layer is not None:
        spans.write(
            os.path.join(out, f"spans_{stem}.json"),
            {"workload": args.workload, "seed": args.seed, "host": host},
        )

    if per_layer is None:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
    else:
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u in units.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
