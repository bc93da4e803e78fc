
import numpy as np
import pytest

from peermesh.simcore import DEFAULT_SEED, RandomStream
from peermesh.sync import AttributeList, Phase, run_round
from peermesh.timing import (
    MODE_EQUATION_LITERAL,
    MODE_TABLE_CONSISTENT,
    SWEEP_TOTALS,
    HopsArrayDims,
    UpdateTiming,
    default_factor_pairs,
    find_optimum,
    monte_carlo,
    optimum_curve,
    simulate_once,
    sweep,
    trial_stream,
)
from peermesh.topology import NeighborhoodMap, NodeRecord, form_clusters, parse_address


class FixedStream:
    """Stream stub returning a constant delay for every hop."""

    def __init__(self, value: int):
        self.value = value

    def hop_delays(self, size):
        return np.full(size, self.value, dtype=np.int64)

    def hop_delay(self):
        return self.value


def test_single_chain_single_hop_arithmetic():
    # one chain, one hop of 5: forward 2*5, no ring, redistribute 5
    t = simulate_once(HopsArrayDims(1, 1), FixedStream(5))
    assert (t.cluster_phase, t.leader_phase, t.redistribute_phase, t.total) == (10, 0, 5, 15)


def test_phase_arithmetic_with_fixed_delays():
    t = simulate_once(HopsArrayDims(2, 3), FixedStream(5))
    # chains of 2 hops, all 5s: forward sums 10 -> doubled; ring 2 hops
    assert t.cluster_phase == 20
    assert t.leader_phase == 10
    assert t.redistribute_phase == 10
    assert t.total == 40
    lit = simulate_once(HopsArrayDims(2, 3), FixedStream(5), mode=MODE_EQUATION_LITERAL)
    assert lit.leader_phase == 20  # full round trip, fresh draws both ways
    assert lit.total == 50


def test_update_timing_checks_its_own_sum():
    with pytest.raises(ValueError):
        UpdateTiming(cluster_phase=1, leader_phase=1, redistribute_phase=1, total=4)


def test_simulate_once_is_stream_deterministic():
    dims = HopsArrayDims(8, 32)
    a = simulate_once(dims, RandomStream(7, "t"))
    b = simulate_once(dims, RandomStream(7, "t"))
    assert a == b


def test_monte_carlo_single_trial_matches_simulate_once():
    dims = HopsArrayDims(8, 8)
    row = monte_carlo(dims, trials=1, seed=123)
    one = simulate_once(dims, trial_stream(123, dims, MODE_TABLE_CONSISTENT, 0))
    assert row.cluster_phase.mean == one.cluster_phase
    assert row.leader_phase.mean == one.leader_phase
    assert row.redistribute_phase.mean == one.redistribute_phase
    assert row.total.mean == one.total


def test_monte_carlo_reproducible_and_seed_sensitive():
    dims = HopsArrayDims(4, 8)
    a = monte_carlo(dims, trials=60, seed=1)
    b = monte_carlo(dims, trials=60, seed=1)
    c = monte_carlo(dims, trials=60, seed=2)
    assert a == b
    assert a != c


def test_leader_phase_mean_tracks_ring_length():
    # sum of (columns-1) uniform{1..10} draws: mean 5.5 per hop
    dims = HopsArrayDims(8, 32)
    row = monte_carlo(dims, trials=400, seed=11)
    want = (dims.columns - 1) * 5.5
    assert abs(row.leader_phase.mean - want) <= 0.05 * want


def test_mean_cluster_sum_tracks_row_count():
    dims = HopsArrayDims(16, 16)
    row = monte_carlo(dims, trials=300, seed=12)
    want = dims.rows * 5.5
    assert abs(row.mean_cluster_sum - want) <= 0.05 * want


def test_forward_phase_is_twice_the_fresh_redistribute_pass():
    # same distribution of per-chain sums, one doubled: means ratio ~ 2
    row = monte_carlo(HopsArrayDims(16, 16), trials=400, seed=13)
    ratio = row.cluster_phase.mean / row.redistribute_phase.mean
    assert 1.9 <= ratio <= 2.1


def test_equation_literal_doubles_the_ring_mean():
    dims = HopsArrayDims(8, 32)
    table = monte_carlo(dims, trials=300, seed=14)
    literal = monte_carlo(dims, trials=300, seed=14, mode=MODE_EQUATION_LITERAL)
    ratio = literal.leader_phase.mean / table.leader_phase.mean
    assert 1.85 <= ratio <= 2.15


def test_percentile_band_contains_the_bulk():
    row = monte_carlo(HopsArrayDims(8, 32), trials=500, seed=15)
    stats = row.total
    assert stats.lo < stats.mean < stats.hi
    assert stats.contains(stats.mean)
    assert not stats.contains(stats.hi + 100)


def test_default_factor_pairs_256():
    pairs = default_factor_pairs(256)
    assert [(d.rows, d.columns) for d in pairs] == [
        (64, 4),
        (32, 8),
        (16, 16),
        (8, 32),
        (4, 64),
    ]


@pytest.mark.parametrize("total,count", [(256, 5), (512, 6), (1024, 7), (2048, 8)])
def test_default_factor_pair_counts(total, count):
    pairs = default_factor_pairs(total)
    assert len(pairs) == count
    assert all(d.total_hops == total for d in pairs)
    rows = [d.rows for d in pairs]
    assert rows == sorted(rows, reverse=True)


def test_default_factor_pairs_rejects_bad_totals():
    with pytest.raises(ValueError):
        default_factor_pairs(8)
    with pytest.raises(ValueError):
        default_factor_pairs(96)  # no power-of-two split with both sides >= 4


def test_sweep_rejects_foreign_dims():
    with pytest.raises(ValueError):
        sweep(256, factor_pairs=(HopsArrayDims(4, 4),), trials=5)


def test_sweep_row_order_follows_factor_pairs():
    rows = sweep(256, trials=5, seed=3)
    assert [(r.rows, r.columns) for r in rows] == [(64, 4), (32, 8), (16, 16), (8, 32), (4, 64)]


def test_find_optimum_validates_total():
    with pytest.raises(ValueError):
        find_optimum(500, trials=5)
    with pytest.raises(ValueError):
        find_optimum(8, trials=5)


def test_find_optimum_picks_the_smallest_mean():
    res = find_optimum(256, trials=200, seed=DEFAULT_SEED)
    rows = sweep(256, trials=200, seed=DEFAULT_SEED)
    best = min(rows, key=lambda r: r.total.mean)
    assert res.dims == best.dims
    assert res.row == best
    assert res.ratio == best.rows / best.columns


def test_optimum_curve_shape_and_units():
    curve = optimum_curve(trials=30, seed=5)
    assert [total for total, _ in curve] == list(SWEEP_TOTALS)
    for total, ms in curve:
        best = find_optimum(total, trials=30, seed=5)
        assert ms == pytest.approx(best.row.total.mean * 50)
    values = [ms for _, ms in curve]
    assert values == sorted(values)  # larger fleets take longer


def test_dims_validation_and_str():
    with pytest.raises(ValueError):
        HopsArrayDims(0, 4)
    assert str(HopsArrayDims(8, 32)) == "8x32"
    assert HopsArrayDims(8, 32).total_hops == 256


def test_trial_streams_are_disjoint_across_trials_and_modes():
    dims = HopsArrayDims(4, 4)
    a = simulate_once(dims, trial_stream(1, dims, MODE_TABLE_CONSISTENT, 0))
    b = simulate_once(dims, trial_stream(1, dims, MODE_TABLE_CONSISTENT, 1))
    c = simulate_once(dims, trial_stream(1, dims, MODE_EQUATION_LITERAL, 0), mode=MODE_EQUATION_LITERAL)
    assert a != b  # distinct trial indices draw from distinct streams
    assert a != c  # the mode is part of the stream identity


class RecordingStream(RandomStream):
    """A real stream that also records how many hop delays each draw asks for."""

    def __init__(self, seed: int, stream_id: str):
        super().__init__(seed, stream_id)
        self.sizes: list[int] = []

    def hop_delays(self, size):
        self.sizes.append(int(np.prod(size)))
        return super().hop_delays(size)


@pytest.mark.parametrize("dims", default_factor_pairs(256), ids=str)
def test_equation_literal_draws_match_update_round_messages(dims):
    # The timing model draws one delay per hop of a real round over
    # `columns` clusters of `rows + 1` members.
    stream = RecordingStream(DEFAULT_SEED, "differential")
    simulate_once(dims, stream, mode=MODE_EQUATION_LITERAL)
    forward, ring, redistribute = stream.sizes
    count = dims.columns * (dims.rows + 1)
    nmap = NeighborhoodMap.build(NodeRecord(parse_address(0x0A000000 + i)) for i in range(count))
    plan = form_clusters(nmap, dims.rows + 1)
    messages = run_round(plan, {a: AttributeList() for a in plan.members}).phase_messages
    assert forward == messages[Phase.INTRA_FORWARD] == messages[Phase.INTRA_REVERSE]
    assert ring == messages[Phase.LEADER_RING]
    assert redistribute == messages[Phase.REDISTRIBUTE]
