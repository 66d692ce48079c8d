"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload twice at one seed and asserts that everything the
simulation determines repeats exactly: the checksum, the ``sim_*``
metrics, the failed share, and every count-type per-layer metric
(simulator events, DSM page transfers, scheduler decisions, ``repro``
call counts). A later change may rest a count claim only on metrics
this test holds exact. It also runs every workload once at the
held-out seed with the output checks on, and checks the contract with
BENCHMARK.json. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("percall_scale", "flash_brownout", "fleet_cohort")
#: Later gain claims must also hold at this seed (see README.md).
HELD_OUT_SEED = 4242
REPEAT_SEED = 3


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT, env=None):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.01", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )
    return proc


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(
        ROOT, ".bench_out", f"result_{workload}_seed{seed}_trace{trace}.json"
    )
    with open(path, encoding="utf-8") as handle:
        return {"line": line, "file": json.load(handle)}


def exact_part(res: dict) -> dict:
    """What a seed determines: everything but host times and shares."""
    units = run.per_layer_units()
    e2e = res["file"]["end_to_end"]
    return {
        "checksum": res["file"]["checksum"],
        "failed_share": res["file"]["failed_share"],
        "tail": res["file"]["tail"],
        "sim": {k: v for k, v in e2e.items() if k.startswith("sim_")},
        "per_layer": {
            name: value
            for name, value in res["file"]["per_layer"].items()
            if units[name] not in ("s", "share") and name != "trace.overhead_ratio"
        },
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_repeat_at_one_seed(workload):
    first = exact_part(result(workload, REPEAT_SEED, 1))
    second = exact_part(result(workload, REPEAT_SEED, 1))
    assert first == second
    assert first["failed_share"] == 0
    assert first["per_layer"]["sim.events"] > 0
    assert first["per_layer"]["core.ncalls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_output_checks(workload):
    res = result(workload, HELD_OUT_SEED, 0)
    line = res["line"]
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert res["file"]["host"]["nproc"] >= 1


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_reference_path_knobs():
    env = dict(os.environ, REPRO_EVENT_QUEUE="calendar")
    proc = bench("percall_scale", 0, 0, env=env)
    assert proc.returncode == 2
    assert "REPRO_EVENT_QUEUE" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("percall_scale", 0, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
