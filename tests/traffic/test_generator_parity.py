"""``generate_trace`` against the per-candidate reference loop.

The reference below scans every spike through ``TrafficSpec.rate_at``
for every candidate arrival, which is the definition of the thinning
envelope. The library walks precomputed spike boundaries with a cursor
instead; both must draw the same numbers in the same order and round
the rate identically, so their traces are bit-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import SpikeWindow, Trace, TraceEntry, TrafficSpec, generate_trace


def reference_generate_trace(spec: TrafficSpec) -> Trace:
    rng = np.random.default_rng(spec.seed)
    peak = spec.peak_rate_per_s
    entries = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= spec.horizon_s:
            break
        if float(rng.random()) * peak > spec.rate_at(t):
            continue
        app = spec.apps[int(rng.integers(len(spec.apps)))]
        calls = 1 + min(spec.calls_max - 1, int(rng.pareto(spec.calls_alpha)))
        entries.append(
            TraceEntry(app=app, arrival_s=t, calls=calls, deadline_s=spec.deadline_s)
        )
    return Trace(entries=tuple(entries), seed=spec.seed, horizon_s=spec.horizon_s)


_APPS = (
    "digit.500", "digit.2000", "facedet.320", "facedet.640", "cg.A", "mg.B", "bfs.1000",
)


@st.composite
def specs(draw):
    horizon = draw(st.floats(1.0, 60.0))
    spikes = draw(
        st.lists(
            st.builds(
                SpikeWindow,
                at_s=st.floats(0.0, horizon, exclude_max=True),
                # Long windows run past the horizon; short ones overlap.
                duration_s=st.floats(0.05, 2.0 * horizon),
                factor=st.floats(0.2, 8.0),
            ),
            max_size=4,
        )
    )
    return TrafficSpec(
        apps=draw(st.lists(st.sampled_from(_APPS), min_size=1, max_size=7, unique=True)),
        base_rate_per_s=draw(st.floats(0.1, 5.0)),
        horizon_s=horizon,
        diurnal_period_s=draw(st.floats(0.5, 90.0)),
        diurnal_amplitude=draw(st.floats(0.0, 0.95)),
        spikes=tuple(spikes),
        calls_alpha=draw(st.floats(0.3, 3.0)),
        calls_max=draw(st.integers(1, 8)),
        deadline_s=draw(st.none() | st.floats(0.5, 30.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(specs())
def test_matches_reference_on_random_specs(spec):
    assert generate_trace(spec).lines() == reference_generate_trace(spec).lines()


def test_matches_reference_on_flash_crowd_specs():
    # Five 30 s periods with a 10x spike in each, as the flash-crowd
    # benchmark generates them, at several seeds.
    for seed in range(8):
        spec = TrafficSpec(
            apps=("digit.500", "facedet.320", "facedet.640"),
            base_rate_per_s=3.0,
            horizon_s=150.0,
            diurnal_period_s=30.0,
            diurnal_amplitude=0.4,
            spikes=tuple(
                SpikeWindow(at_s=30.0 * k + 10.0, duration_s=5.0, factor=10.0)
                for k in range(5)
            ),
            calls_alpha=1.5,
            calls_max=4,
            deadline_s=15.0,
            seed=seed,
        )
        assert generate_trace(spec).lines() == reference_generate_trace(spec).lines()


def test_single_app_and_no_spikes():
    # One app: ``integers(1)`` draws nothing from the stream, which
    # both loops must agree on.
    spec = TrafficSpec(apps=("digit.500",), base_rate_per_s=4.0, horizon_s=40.0, seed=7)
    assert generate_trace(spec).lines() == reference_generate_trace(spec).lines()
