
import math

import numpy as np
import pytest

from peermesh.simcore import DEFAULT_SEED, HOPS_PER_DRAW, RandomStream
from peermesh.sync import AttributeList, Phase, run_round
from peermesh.timing import (
    BLOCK_TRIALS,
    MODE_EQUATION_LITERAL,
    MODE_TABLE_CONSISTENT,
    MODES,
    SWEEP_TOTALS,
    HopsArrayDims,
    _draw_trials,
    _phase_widths,
    _trial_components,
    barrier_latency,
    block_stream,
    default_factor_pairs,
    find_optimum,
    monte_carlo,
    optimum_curve,
    sweep,
)
from peermesh.topology import NeighborhoodMap, NodeRecord, form_clusters, parse_address


class FixedStream:
    """Stream stub returning a constant delay for every hop: each packed draw
    has every digit at value - 1."""

    def __init__(self, value: int):
        self.value = value

    def hop_delays(self, size):
        return np.full(size, int(str(self.value - 1) * HOPS_PER_DRAW), dtype=np.int16)

    def hop_delay(self):
        return self.value


def hops_of(draw: int) -> list[int]:
    """The hop delays one packed draw carries, units digit first."""
    return [draw // 10**k % 10 + 1 for k in range(HOPS_PER_DRAW)]


def decode_trial(dims, mode, draws):
    """One trial's packed draws, decoded hop by hop in draw order: (forward
    chains, ring hops, redistribute chains). A pass lays its draws out (draws
    per chain, columns); a chain of h hops reads the low digits of its last
    draw only."""
    ring_hops = (dims.columns - 1) * (2 if mode == MODE_EQUATION_LITERAL else 1)
    per_chain = math.ceil(dims.rows / HOPS_PER_DRAW)
    rest = iter(draws)

    def chain(hops, packed):
        return [hop for draw in packed for hop in hops_of(draw)][:hops]

    def one_pass():
        grid = [[next(rest) for _ in range(dims.columns)] for _ in range(per_chain)]
        return [chain(dims.rows, [row[c] for row in grid]) for c in range(dims.columns)]

    forward = one_pass()
    ring = chain(ring_hops, [next(rest) for _ in range(math.ceil(ring_hops / HOPS_PER_DRAW))])
    redistribute = one_pass()
    assert next(rest, None) is None, "a trial drew more than its hops need"
    return forward, ring, redistribute


class RecordingStream(RandomStream):
    """A real stream that also keeps every packed draw it hands out."""

    def __init__(self, seed: int, stream_id: str):
        super().__init__(seed, stream_id)
        self.draws: list[np.ndarray] = []

    def hop_delays(self, size):
        self.draws.append(super().hop_delays(size))
        return self.draws[-1]


def one_trial(dims, stream, mode=MODE_TABLE_CONSISTENT):
    """(cluster, leader, redistribute, total) of one trial drawn from stream."""
    cluster, leader, redist, _forward = _draw_trials(dims, stream, mode, 1)[:, 0].tolist()
    return cluster, leader, redist, cluster + leader + redist


def test_single_chain_single_hop_arithmetic():
    # one chain, one hop of 5: forward 2*5, no ring, redistribute 5
    assert one_trial(HopsArrayDims(1, 1), FixedStream(5)) == (10, 0, 5, 15)


def test_phase_arithmetic_with_fixed_delays():
    # chains of 2 hops, all 5s: forward sums 10 -> doubled; ring 2 hops
    assert one_trial(HopsArrayDims(2, 3), FixedStream(5)) == (20, 10, 10, 40)
    lit = one_trial(HopsArrayDims(2, 3), FixedStream(5), mode=MODE_EQUATION_LITERAL)
    assert lit[1] == 20  # full round trip, fresh draws both ways
    assert lit[3] == 50


def test_one_trial_is_stream_deterministic():
    dims = HopsArrayDims(8, 32)
    a = one_trial(dims, RandomStream(7, "t"))
    b = one_trial(dims, RandomStream(7, "t"))
    assert a == b


def test_monte_carlo_single_trial_is_the_first_trial_of_block_0():
    dims = HopsArrayDims(8, 8)
    row = monte_carlo(dims, trials=1, seed=123)
    one = one_trial(dims, block_stream(123, dims, MODE_TABLE_CONSISTENT, 0))
    means = (row.cluster_phase.mean, row.leader_phase.mean, row.redistribute_phase.mean, row.total.mean)
    assert means == one


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
    for total in (0, 8, 96, 2**17):  # 96 has no power-of-two split with both sides >= 4
        with pytest.raises(ValueError):
            default_factor_pairs(total)
    accepted = []
    for total in range(1, 2**17 + 1):
        try:
            default_factor_pairs(total)
        except ValueError:
            continue
        accepted.append(total)
    assert accepted == [2**n for n in range(4, 17)]


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
    a = one_trial(dims, block_stream(1, dims, MODE_TABLE_CONSISTENT, 0))
    b = one_trial(dims, block_stream(1, dims, MODE_TABLE_CONSISTENT, 1))
    c = one_trial(dims, block_stream(1, dims, MODE_EQUATION_LITERAL, 0), mode=MODE_EQUATION_LITERAL)
    assert a != b  # distinct blocks draw from distinct streams
    assert a != c  # the mode is part of the stream identity
    first, second = _trial_components(dims, 2, 1, MODE_TABLE_CONSISTENT).T
    assert not np.array_equal(first, second)  # rows of one block are distinct trials


@pytest.mark.parametrize("mode", MODES)
def test_trials_are_prefixes_whatever_the_trial_count(mode):
    dims = HopsArrayDims(4, 8)
    longest = _trial_components(dims, 200, 5, mode)
    for trials in (1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1):
        assert np.array_equal(_trial_components(dims, trials, 5, mode), longest[:, :trials])
    row = monte_carlo(dims, trials=BLOCK_TRIALS + 1, seed=5, mode=mode)
    assert row.cluster_phase.mean == longest[0, : BLOCK_TRIALS + 1].mean()
    assert row.total.mean == longest[:3, : BLOCK_TRIALS + 1].sum(axis=0).mean()


def _max_of_sums(rows: int, columns: int) -> tuple[float, float]:
    """Exact (mean, variance) of the max of `columns` iid sums of `rows`
    uniform {1..10} hops: the sum's pmf by repeated convolution, the max's
    cdf as the sum's cdf to the power `columns`."""
    pmf = np.array([1.0])
    for _ in range(rows):
        pmf = np.convolve(pmf, np.full(10, 0.1))
    support = np.arange(len(pmf)) + rows
    cdf_max = np.cumsum(pmf).clip(0.0, 1.0) ** columns
    pmf_max = np.diff(cdf_max, prepend=0.0)
    mean = float((support * pmf_max).sum())
    return mean, float((support**2 * pmf_max).sum()) - mean * mean


def test_exact_max_of_sums_matches_enumeration():
    # every 2x2 draw: the max of two sums of two hops
    sums = [a + b for a in range(1, 11) for b in range(1, 11)]
    maxima = np.array([max(x, y) for x in sums for y in sums], dtype=float)
    mean, var = _max_of_sums(2, 2)
    assert mean == pytest.approx(maxima.mean(), abs=1e-9)
    assert var == pytest.approx(maxima.var(), abs=1e-9)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("total", SWEEP_TOTALS)
def test_block_means_lie_within_five_standard_errors_of_exact(total, mode):
    trials = 1500
    for row in sweep(total, trials=trials, seed=DEFAULT_SEED, mode=mode):
        m_mean, m_var = _max_of_sums(row.rows, row.columns)
        _forward, ring, _redistribute = _phase_widths(row.dims, mode)
        exact = {
            "cluster_phase": (2 * m_mean, 4 * m_var),
            "leader_phase": (ring * 5.5, ring * 8.25),
            "redistribute_phase": (m_mean, m_var),
        }
        exact["total"] = tuple(map(sum, zip(*exact.values())))
        for name, (mean, var) in exact.items():
            got = getattr(row, name).mean
            z = abs(got - mean) / math.sqrt(var / trials)
            assert z <= 5, f"{row.dims} {mode} {name}: {got} vs exact {mean:.3f}, z={z:.2f}"


@pytest.mark.parametrize("dims", default_factor_pairs(256), ids=str)
def test_equation_literal_draws_match_update_round_messages(dims):
    # The timing model draws one delay per hop of a real round over
    # `columns` clusters of `rows + 1` members, in one draw sliced by phase.
    # Counted in hops carried, not int16s drawn: each draw carries up to
    # HOPS_PER_DRAW of them.
    stream = RecordingStream(DEFAULT_SEED, "differential")
    one_trial(dims, stream, mode=MODE_EQUATION_LITERAL)
    (draws,) = stream.draws
    assert draws.shape[0] == 1
    chains, ring_hops, redistribute_chains = decode_trial(dims, MODE_EQUATION_LITERAL, draws[0].tolist())
    forward, ring, redistribute = sum(map(len, chains)), len(ring_hops), sum(map(len, redistribute_chains))
    assert (forward, ring, redistribute) == _phase_widths(dims, MODE_EQUATION_LITERAL)
    count = dims.columns * (dims.rows + 1)
    nmap = NeighborhoodMap.build(NodeRecord(parse_address(0x0A000000 + i)) for i in range(count))
    plan = form_clusters(nmap, dims.rows + 1)
    messages = run_round(plan, {a: AttributeList() for a in plan.members}).phase_messages
    assert forward == messages[Phase.INTRA_FORWARD] == messages[Phase.INTRA_REVERSE]
    assert ring == messages[Phase.LEADER_RING]
    assert redistribute == messages[Phase.REDISTRIBUTE]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 3])
@pytest.mark.parametrize("dims", default_factor_pairs(256), ids=str)
def test_barrier_latency_is_trial_zero_of_equation_literal(dims, seed):
    # Block 0's stream, decoded hop by hop in the order barrier_latency takes
    # its delays (forward chains, ring, redistribute chains), is trial 0.
    stream = RecordingStream(seed, block_stream(seed, dims, MODE_EQUATION_LITERAL, 0).stream_id)
    _draw_trials(dims, stream, MODE_EQUATION_LITERAL, BLOCK_TRIALS)
    (draws,) = stream.draws
    forward, ring, redistribute = decode_trial(dims, MODE_EQUATION_LITERAL, draws[0].tolist())
    delays = [hop for chain in forward + [ring] + redistribute for hop in chain]
    latency = barrier_latency([dims.rows] * dims.columns, delays)
    assert latency == monte_carlo(dims, trials=1, seed=seed, mode=MODE_EQUATION_LITERAL).total.mean


def test_barrier_latency_reads_each_phase_from_its_place_in_the_delays():
    # Chains of 2 and 1 hops (5 members): forward [1, 2] and [9], ring [4, 5],
    # redistribute [6, 7] and [3]; 2n - 2 = 8 delays in all.
    delays = [1, 2, 9, 4, 5, 6, 7, 3]
    assert barrier_latency([2, 1], delays) == 2 * 9 + (4 + 5) + (6 + 7)
    for wrong in (delays[:-1], delays + [1]):
        with pytest.raises(ValueError, match="take 8 delays"):
            barrier_latency([2, 1], wrong)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 7), (4, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_draw_trials_match_a_hop_by_hop_decoding(shape, mode):
    # Every trial of a block, recomputed in plain Python from the per-hop
    # delays its draws carry. 1x1 has no ring, and 1x1 and 5x7 end each
    # chain on a one-digit draw; rings of 2, 6, 7 and 14 hops end on a
    # partial draw, rings of 4 and 12 on a full one.
    dims = HopsArrayDims(*shape)
    stream = RecordingStream(3, f"oracle/{dims}/{mode}")
    got = _draw_trials(dims, stream, mode, BLOCK_TRIALS)
    (draws,) = stream.draws
    assert draws.shape[0] == BLOCK_TRIALS
    want = []
    for row in draws.tolist():
        forward, ring, redistribute = decode_trial(dims, mode, row)
        hops = [hop for chain in forward + [ring] + redistribute for hop in chain]
        assert all(1 <= hop <= 10 for hop in hops)
        forward_sums = [sum(chain) for chain in forward]
        want.append((2 * max(forward_sums), sum(ring), max(map(sum, redistribute)), sum(forward_sums)))
    assert got.dtype == np.int64
    assert [tuple(trial) for trial in got.T.tolist()] == want
