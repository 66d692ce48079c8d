"""The cohort-shard oracle: vectorized ``shard_cohorts`` vs the per-client loop.

``FleetDeployment.shard_cohorts`` places a whole population with array
code: one block draw of power-of-two-choices pairs, one placement pass
per gossip interval, and one bulk observation of every client's
staleness. The per-client loop it replaced lives on here as the
reference. The contract: the same per-node sub-specs (app, clients,
exact arrival times, seed), the same assigned counts, and the same
``fleet_gossip_staleness_seconds`` series, reservoir included.

The bulk observation rests on ``Histogram.observe_many``, held here to
one ``observe`` per value across the reservoir boundary.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cohort import ArrivalLaw, CohortSpec, sample_arrivals
from repro.fleet import FleetConfig, FleetDeployment
from repro.metrics.core import Histogram

APPS = ("digit.2000", "facedet.320", "cg.A")
STALENESS = "fleet_gossip_staleness_seconds"


def reference_shard_cohorts(fleet, specs):
    """One client at a time, in global arrival order (the reference)."""
    specs = tuple(specs)
    n = len(fleet.nodes)
    arrivals = [sample_arrivals(spec) for spec in specs]
    order = sorted(
        (float(arr[ci]), si, ci)
        for si, arr in enumerate(arrivals)
        for ci in range(len(arr))
    )
    interval = fleet.config.gossip_interval_s
    rng = fleet._streams.spawn("cohort-shard").stream("assign")
    staleness = fleet.metrics.get(STALENESS)
    true_counts = [0] * n
    stale_counts = [0] * n
    last_boundary = 0.0
    assignment = [np.zeros(len(arr), dtype=np.int64) for arr in arrivals]
    for t, si, ci in order:
        boundary = math.floor(t / interval) * interval
        if boundary > last_boundary:
            stale_counts = list(true_counts)
            last_boundary = boundary
        staleness.observe(t - last_boundary)
        if n == 1:
            node = 0
        else:
            i, j = rng.choice(n, size=2, replace=False)
            i, j = int(i), int(j)
            if stale_counts[i] < stale_counts[j]:
                node = i
            elif stale_counts[j] < stale_counts[i]:
                node = j
            else:
                node = min(i, j)
        true_counts[node] += 1
        assignment[si][ci] = node

    per_node = [[] for _ in range(n)]
    for si, spec in enumerate(specs):
        for node in range(n):
            indexes = np.flatnonzero(assignment[si] == node)
            if not len(indexes):
                continue
            times = tuple(float(arrivals[si][ci]) for ci in indexes)
            per_node[node].append(
                CohortSpec(
                    app=spec.app,
                    clients=len(times),
                    calls=spec.calls,
                    arrival=ArrivalLaw(kind="explicit", times=times),
                    seed=spec.seed,
                )
            )
    return per_node, true_counts


def _histogram_state(histogram):
    return (
        histogram._series_snapshot(),
        list(histogram._reservoir),
        histogram._rng.bit_generator.state if histogram._rng else None,
    )


def _shard_view(per_node):
    return [
        [
            (s.app, s.clients, s.calls, s.arrival.kind, s.arrival.times, s.seed)
            for s in node_specs
        ]
        for node_specs in per_node
    ]


def _assert_shards_match(config, specs):
    fast_fleet = FleetDeployment(config)
    slow_fleet = FleetDeployment(config)
    fast = fast_fleet.shard_cohorts(specs)
    slow = reference_shard_cohorts(slow_fleet, specs)
    assert _shard_view(fast[0]) == _shard_view(slow[0])
    assert fast[1] == slow[1]
    assert all(type(count) is int for count in fast[1])
    assert _histogram_state(fast_fleet.metrics.get(STALENESS)) == _histogram_state(
        slow_fleet.metrics.get(STALENESS)
    )


@st.composite
def spec_sets(draw):
    """1-4 cohorts; explicit cohorts share a pool of arrival times so
    ties across specs (and within one) are common."""
    shared = draw(
        st.lists(
            st.floats(0.0, 20.0, allow_nan=False).map(lambda t: round(t, 1)),
            min_size=1,
            max_size=6,
        )
    )
    specs = []
    for index in range(draw(st.integers(1, 4))):
        clients = draw(st.integers(1, 60))
        kind = draw(st.sampled_from(("explicit", "uniform", "poisson", "staggered")))
        if kind == "explicit":
            times = tuple(draw(st.sampled_from(shared)) for _ in range(clients))
            arrival = ArrivalLaw("explicit", times=times)
        else:
            arrival = ArrivalLaw(
                kind,
                start=draw(st.floats(0.0, 5.0, allow_nan=False)),
                span=draw(st.floats(0.5, 30.0, allow_nan=False)),
            )
        specs.append(
            CohortSpec(
                draw(st.sampled_from(APPS)),
                clients,
                calls=draw(st.integers(1, 4)),
                arrival=arrival,
                seed=draw(st.integers(0, 2**32 - 1)),
            )
        )
    return specs


class TestShardOracle:
    @settings(deadline=None, max_examples=120)
    @given(
        specs=spec_sets(),
        nodes=st.integers(1, 12),
        interval=st.floats(0.1, 5.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_vectorized_shard_equals_per_client_loop(
        self, specs, nodes, interval, seed
    ):
        config = FleetConfig(
            nodes=nodes, apps=APPS, seed=seed, gossip_interval_s=interval
        )
        _assert_shards_match(config, specs)

    def test_reservoir_overflow_at_cohort_scale(self):
        """5,000 clients overflow the 4,096-slot staleness reservoir,
        so Algorithm R's replacement draws are compared too."""
        specs = [
            CohortSpec(
                app, 1_250, calls=2,
                arrival=ArrivalLaw(law, start=0.5 * index, span=30.0),
                seed=7 + index,
            )
            for index, (app, law) in enumerate(
                zip(APPS + ("digit.2000",), ("uniform", "poisson", "staggered", "uniform"))
            )
        ]
        config = FleetConfig(nodes=10, apps=APPS, seed=3, gossip_interval_s=1.0)
        _assert_shards_match(config, specs)

    def test_no_specs(self):
        fleet = FleetDeployment(FleetConfig(nodes=3, apps=APPS))
        assert fleet.shard_cohorts([]) == ([[], [], []], [0, 0, 0])
        assert fleet.metrics.get(STALENESS).count == 0


def _observe_loop(histogram, values):
    for value in values:
        histogram.observe(value)


class TestObserveMany:
    @settings(deadline=None, max_examples=150)
    @given(
        batches=st.lists(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
        reservoir=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    def test_equals_observe_loop_across_reservoir_boundary(
        self, batches, reservoir, seed
    ):
        buckets = (-10.0, -1.0, 0.0, 0.5, 1.0, 10.0, 100.0)
        bulk = Histogram(
            "h", buckets=buckets, reservoir_size=reservoir,
            rng=np.random.default_rng(seed),
        )
        loop = Histogram(
            "h", buckets=buckets, reservoir_size=reservoir,
            rng=np.random.default_rng(seed),
        )
        for batch in batches:
            bulk.observe_many(batch)
            _observe_loop(loop, batch)
            assert _histogram_state(bulk) == _histogram_state(loop)
        assert (bulk._count, bulk._sum, bulk._min, bulk._max) == (
            loop._count, loop._sum, loop._min, loop._max,
        )
        assert bulk._bucket_counts == loop._bucket_counts

    def test_name_derived_generator_matches(self):
        values = np.random.default_rng(5).exponential(1.0, 300)
        bulk = Histogram("derived", reservoir_size=16)
        loop = Histogram("derived", reservoir_size=16)
        bulk.observe_many(values[:100])
        bulk.observe_many(values[100:])
        _observe_loop(loop, values)
        assert _histogram_state(bulk) == _histogram_state(loop)

    def test_signed_zero_extremes_keep_the_first(self):
        bulk, loop = Histogram("z"), Histogram("z")
        bulk.observe_many([0.0, -0.0, 1.0, 1.0])
        _observe_loop(loop, [0.0, -0.0, 1.0, 1.0])
        assert math.copysign(1.0, bulk._min) == math.copysign(1.0, loop._min)
        assert _histogram_state(bulk) == _histogram_state(loop)
