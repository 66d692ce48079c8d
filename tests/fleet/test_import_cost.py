"""``import repro.fleet`` stays light: no experiment harness, no pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import json, sys
import repro.fleet
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "multiprocessing"
    or name.startswith("concurrent.futures")
    or name.startswith("repro.experiments")
)))
"""


def test_import_leaves_harness_and_pool_unloaded():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []
