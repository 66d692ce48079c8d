#!/usr/bin/env python3
"""Same-runner performance tripwire: perfbench on a parent and on a change.

    python3 tools/perf_tripwire.py PARENT_CHECKOUT [CHANGE_CHECKOUT]

For every workload ``BENCHMARK.json`` declares, runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 10 --trace 0

in each checkout (the change defaults to the current directory), in
five pairs, alternating which side runs first. Both sides share the
machine and run back to back, so no timing taken on another host is
involved. Every pair is printed. The exit status is 1 when any run
failed a check (``failed > 0``, or no result line), or when a
workload's median ``host_us_per_call`` on the change is worse than the
parent's by more than that metric's bound in the change's
``BENCHMARK.json``; otherwise 0.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from typing import NamedTuple, Optional, Sequence

METRIC = "host_us_per_call"
PAIRS = 5
SECONDS = 10
SEED = 0


class Run(NamedTuple):
    """One perfbench run: its ``host_us_per_call`` (None when it
    produced no result line) and its ``failed`` count."""

    host_us_per_call: Optional[float]
    failed: int


def read_bound(benchmark: dict, metric: str = METRIC) -> float:
    """The relative bound BENCHMARK.json sets on ``metric``."""
    for entry in benchmark["end_to_end"]:
        if entry["name"] == metric:
            return float(entry["bound"])
    raise KeyError(f"BENCHMARK.json declares no end-to-end metric {metric!r}")


def verdict(
    workload: str, parent: Sequence[Run], change: Sequence[Run], bound: float
) -> list[str]:
    """Why ``workload`` fails the tripwire (empty when it passes).

    A run that failed a check fails it outright. Otherwise the change
    fails when its median ``host_us_per_call`` exceeds the parent's
    median by more than ``bound`` (a fraction of the parent's).
    """
    problems = [
        f"{workload}: {side} run {index} failed a check"
        for side, runs in (("parent", parent), ("change", change))
        for index, run in enumerate(runs)
        if run.failed > 0 or run.host_us_per_call is None
    ]
    if problems:
        return problems
    before = statistics.median(run.host_us_per_call for run in parent)
    after = statistics.median(run.host_us_per_call for run in change)
    worse = after / before - 1.0
    if worse > bound:
        problems.append(
            f"{workload}: median {METRIC} {after:.3f} us is {worse:+.1%} "
            f"against the parent's {before:.3f} us (bound {bound:+.0%})"
        )
    return problems


def run_perfbench(checkout: str, workload: str) -> Run:
    """One untraced perfbench run in ``checkout``."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        value = float(result["metrics"][METRIC]["value"])
        failed = int(result["failed"])
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return Run(None, 1)
    return Run(round(value, 3) if math.isfinite(value) else None, failed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not 1 <= len(args) <= 2:
        print(
            "usage: python3 tools/perf_tripwire.py PARENT_CHECKOUT [CHANGE_CHECKOUT]",
            file=sys.stderr,
        )
        return 2
    parent = os.path.abspath(args[0])
    change = os.path.abspath(args[1] if len(args) > 1 else ".")
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bound = read_bound(benchmark)
    problems = []
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        runs: dict[str, list[Run]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(
                    run_perfbench(parent if side == "parent" else change, workload)
                )
            print(
                f"{workload} pair {pair} ({order[0]} first): "
                + ", ".join(
                    f"{side} {runs[side][-1].host_us_per_call} us "
                    f"failed {runs[side][-1].failed}"
                    for side in ("parent", "change")
                ),
                flush=True,
            )
        problems.extend(verdict(workload, runs["parent"], runs["change"], bound))
    for problem in problems:
        print(f"TRIPWIRE: {problem}")
    if not problems:
        print(f"tripwire: every workload within {bound:.0%} of the parent")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
