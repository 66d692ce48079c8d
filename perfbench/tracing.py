"""Benchmark-side tracing: spans around public calls, and a cProfile
breakdown of host self time by ``repro`` subpackage.

Spans are recorded by the benchmark's own code around each public call
it makes into the simulator (``build_system``, ``launch``, ``wait_all``,
``run_chaos``, ...). They are kept in memory and written out once, at
the end of a traced run. The ``hardware``, ``popcorn``, ``xrt`` and
``metrics`` layers are only reachable inside ``wait_all``, so their
share of host time comes from cProfile instead.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import pstats
import time
from typing import Optional

#: The layers the benchmark attributes host time to: the ``repro``
#: subpackages named after the system's components. ``core.cohort``
#: lives inside ``core`` and is counted there.
LAYERS = (
    "sim",
    "hardware",
    "core",
    "popcorn",
    "xrt",
    "metrics",
    "faults",
    "traffic",
    "fleet",
    "compiler",
)

#: Bucket for ``repro`` code outside :data:`LAYERS` (workload models,
#: top-level modules) and for time with no ``repro`` caller at all
#: (the benchmark's own loop, interpreter start-up frames).
OTHER = "other"


class Spans:
    """An in-memory span recorder; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "run": self.run_id,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str, run_id: str) -> float:
        """Summed duration of the spans called ``name`` in one run."""
        return sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["run"] == run_id
        )

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.records}, handle)


def _layer_of(filename: str, repro_root: str) -> Optional[str]:
    """The layer a profiled function belongs to, or None for code that
    is not part of the ``repro`` package (C builtins, stdlib, numpy,
    the benchmark itself)."""
    if not filename.startswith(repro_root):
        return None
    parts = filename[len(repro_root):].strip(os.sep).split(os.sep)
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return OTHER


def layer_profile(profiles: list[cProfile.Profile], repro_root: str) -> dict:
    """Self time share and call count per layer.

    Self time of code outside ``repro`` (C builtins above all: heap
    pops, dict and list methods, numpy kernels) is credited to the
    ``repro`` layer that called it, split by the time each caller spent
    in it and followed up the call chain through other non-``repro``
    frames. Without that, "builtins" would hold a third of the profile
    and hide which layer spent it. ``ncalls`` counts calls of the
    layer's own Python functions only, which repeats exactly for a
    given workload and seed.

    ``profiles`` each cover one repetition of the same work; shares are
    taken over their sum, and ``ncalls`` from the first.
    """
    stats = pstats.Stats(profiles[0])
    for extra in profiles[1:]:
        stats.add(extra)
    first = pstats.Stats(profiles[0]).stats
    table = stats.stats
    repro_root = os.path.abspath(repro_root) + os.sep

    memo: dict = {}

    def credit(func, visiting: frozenset) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _layer_of(func[0], repro_root)
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        entry = table.get(func)
        callers = entry[4] if entry else {}
        weights = {
            caller: (stat[2] if isinstance(stat, tuple) else 0.0)
            for caller, stat in callers.items()
            if caller not in visiting
        }
        total = sum(weights.values())
        if not weights or total <= 0:
            result = {OTHER: 1.0}
        else:
            result: dict[str, float] = {}
            for caller, weight in weights.items():
                for name, share in credit(caller, visiting | {func}).items():
                    result[name] = result.get(name, 0.0) + share * weight / total
        memo[func] = result
        return result

    self_time = {name: 0.0 for name in LAYERS + (OTHER,)}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        if tottime <= 0:
            continue
        for name, share in credit(func, frozenset()).items():
            self_time[name] += tottime * share
    grand = sum(self_time.values())

    ncalls = {name: 0 for name in LAYERS + (OTHER,)}
    for func, (_cc, nc, _tt, _ct, _callers) in first.items():
        layer = _layer_of(func[0], repro_root)
        if layer is not None:
            ncalls[layer] += nc
    return {
        name: {
            "self_share": self_time[name] / grand if grand > 0 else 0.0,
            "ncalls": ncalls[name],
        }
        for name in self_time
    }
