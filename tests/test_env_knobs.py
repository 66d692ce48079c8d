"""Inventory of the environment knobs the package reads.

An environment variable stays only if CI or a user needs it. Adding one
means adding it here and saying why.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every ``REPRO_*`` name allowed in ``src/repro``, with its reason.
KNOBS = {
    # Sweep/bench worker count; CI pins it to get parallel coverage.
    "REPRO_SWEEP_JOBS",
    # Smallest sweep that goes parallel; CI sets 0 to force the pool.
    "REPRO_SWEEP_MIN_CELLS",
    # Fleet/chaos worker count; CI runs the parallel fleet path with it.
    "REPRO_FLEET_JOBS",
}

_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")


def _knobs_in_string_literals():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in _NAME.findall(node.value):
                    found.setdefault(name, path.relative_to(SRC).as_posix())
    return found


def test_repro_knobs_are_exactly_the_inventory():
    found = _knobs_in_string_literals()
    assert set(found) == KNOBS, {
        "unlisted": {name: found[name] for name in set(found) - KNOBS},
        "gone": sorted(KNOBS - set(found)),
    }
