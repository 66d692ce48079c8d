"""Golden digests of the client lifecycle.

``ApplicationRun.start`` drives each run through one precompiled
callback chain (``_chain_begin`` and friends). Until commit
``75ae8b9`` a second implementation, the original generator process
(``_body``), lived beside it as a differential reference. On that
commit both paths were run over the three workload shapes below — a
mixed XAR_TREK workload, all four system modes, and deadline-capped
runs — and agreed on every digest; the digests were then committed
here and the generator path deleted.

Each shape pins three sha256 digests:

* ``records``: one line per RunRecord, floats written with ``repr``;
* ``thresholds``: ``repr`` of both Algorithm 1 thresholds per app;
* ``metrics``: the registry snapshot as sorted JSON.

A mismatch names the shape and the digest that diverged.
"""

import functools
import hashlib

from repro.core import SystemMode, build_system
from repro.metrics.export import to_json
from repro.sim import Process

APPS = ["digit.2000", "facedet.320", "cg.A", "facedet.640"]

ALL_MODES = [
    SystemMode.XAR_TREK,
    SystemMode.VANILLA_X86,
    SystemMode.ALWAYS_FPGA,
    SystemMode.VANILLA_ARM,
]

SHAPES = {
    "mixed": dict(),
    "modes": dict(modes=ALL_MODES),
    "deadline": dict(deadline=True),
}

GOLDEN = {
    "mixed": {
        "records": "e04e0553fb26b664b5411e94b785c5f4124046cf84140f61b5781982fad44ff3",
        "thresholds": "011948ffe374f2a35bf08fcd5e4b68d3eb2d88ba2ab2f157e04f7c3794fddfbe",
        "metrics": "50e40569f7d6914b3cc93e6910743f43c6492172ec139b28ae96d128bdbbcd29",
    },
    "modes": {
        "records": "b37e007f4e6192b501ddc6793b481d7477dd757ccba677a5153ad9490e799f4d",
        "thresholds": "481bac6d7463f799dc24a9d4dea2bea6a9ff4d54d1d13a1cf5b37316fa2bf27c",
        "metrics": "d9ee7d0f62d1616293bba47484fb266f84914d7a8f622b07ace15f50bfbf6ef1",
    },
    "deadline": {
        "records": "76a50f075aef02d9e71503bbbf2859a3be8ffc3c8c1f4e11567740645c6a30ab",
        "thresholds": "387e3c7bf347a8dc46f6d711c51465eab9bc6c6f417974027327721d286cb85d",
        "metrics": "554273e256105bf021bc08b76614def4027ea972d62d8e0f54a744ee6b39a2f0",
    },
}


def _run_workload(*, deadline=False, modes=None):
    """One seeded mixed workload of 24 launches over four apps."""
    runtime = build_system(APPS, seed=7)
    load = runtime.launch_background(10)
    handles = []
    modes = modes or [SystemMode.XAR_TREK]
    for index in range(24):
        kwargs = dict(
            seed=300 + index,
            mode=modes[index % len(modes)],
            calls=1 + index % 3,
            delay_s=0.35 * index,
        )
        if deadline and index % 5 == 0:
            kwargs["deadline_s"] = 2.0
            kwargs.pop("calls")
        handles.append(runtime.launch(APPS[index % len(APPS)], **kwargs))
    records = runtime.wait_all(handles)
    load.stop()
    return runtime, records


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(runtime, records):
    record_lines = "\n".join(
        f"{rec.app},{rec.mode.value},{rec.seed},{rec.start_s!r},{rec.end_s!r},"
        f"{rec.calls_completed},{rec.migrations},{rec.fpga_fallbacks},"
        f"{rec.retries},{rec.deadline_s!r},{rec.shed_reason},"
        f"{'/'.join(str(t) for t in rec.targets)}"
        for rec in records
    )
    table = runtime.server.thresholds
    threshold_lines = "\n".join(
        f"{app} {table.entry(app).fpga_threshold!r} {table.entry(app).arm_threshold!r}"
        for app in APPS
    )
    return {
        "records": _sha(record_lines),
        "thresholds": _sha(threshold_lines),
        "metrics": _sha(to_json(runtime.metrics)),
    }


@functools.lru_cache(maxsize=None)
def _shape_digests(shape):
    runtime, records = _run_workload(**SHAPES[shape])
    assert all(rec.finished for rec in records), shape
    return _digests(runtime, records)


def _assert_golden(shape, keys):
    got = _shape_digests(shape)
    for key in keys:
        assert got[key] == GOLDEN[shape][key], f"shape {shape!r}: {key} digest diverged"


class TestChainGeneratorEquivalence:
    """The chain path reproduces what both paths produced when they
    still coexisted and agreed."""

    def test_mixed_workload_records_are_bit_identical(self):
        _assert_golden("mixed", ("records", "metrics"))

    def test_all_system_modes_agree(self):
        _assert_golden("modes", ("records", "metrics"))

    def test_deadline_runs_agree(self):
        _assert_golden("deadline", ("records", "metrics"))

    def test_threshold_tables_agree(self):
        # Algorithm 1 runs at client exit (and is skipped for
        # deadline-capped runs); the refined table is observable
        # scheduler state.
        for shape in SHAPES:
            _assert_golden(shape, ("thresholds",))

    def test_chain_is_the_default_path(self):
        # start() hands back a plain event driven by bound callbacks,
        # not a generator Process.
        runtime = build_system(["digit.500"], seed=1)
        run = runtime.launch("digit.500", seed=1, mode=SystemMode.XAR_TREK, calls=1)
        assert not isinstance(run, Process)
        record = runtime.wait_all([run])[0]
        assert record.finished and record.calls_completed == 1
