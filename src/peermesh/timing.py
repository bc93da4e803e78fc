"""Monte Carlo timing model for one full synchronization round.

The membership is arranged as a hops array of `rows` x `columns`: `columns`
cluster chains, each needing `rows` member-to-member hops, so a row count of
n-1 corresponds to clusters of n members. Per-hop delays are independent
uniform draws on {1..10} virtual units (1 unit = 50 ms). One trial costs:

  cluster_phase       2 x max over chains of the summed forward hop delays
                      (the reverse pass retraces the forward path, so the
                      slowest chain's forward time is paid twice);
  leader_phase        the leader-ring traversal. Default accounting sums
                      columns-1 sampled hops ("table_consistent"); the
                      alternative "equation_literal" mode sums fresh draws
                      for the full round trip, 2*(columns-1) hops;
  redistribute_phase  max over chains of freshly drawn per-chain sums;
  total               the exact sum of the three.

Trials come in blocks of BLOCK_TRIALS. Block j draws every hop of its trials in
one call on its own derived stream, `timing/{rows}x{columns}/{mode}/block/{j}`,
one trial per row. A draw, a kept PCG64 quarter, carries four hops, one per
decimal digit (see RandomStream.hop_delays), so a chain of h hops takes
ceil(h/4) draws and uses only the low h - 4*(ceil(h/4) - 1) digits of the last;
the ring is one such chain. A trial's draws are contiguous, in phase order:
forward chains, ring, redistribute chains. Statistics depend on (dims, trials,
seed, mode) alone, and trial i is the same at any trial count. barrier_latency
computes one trial's total from its hop delays handed over as one sequence in
that phase order, each chain's hops together; a scenario world times its rounds
with it, drawing a round's 2n-2 delays in one call.

The functions that draw and summarize import numpy, and the tables of digit
sums are built at the first draw, so that importing timing, as the command
line does, loads none.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING

from .simcore import DEFAULT_SEED, DRAW_SPAN, HOPS_PER_DRAW, RandomStream, digit_sums, quarter_sums, units_to_ms

if TYPE_CHECKING:
    import numpy as np

MODE_TABLE_CONSISTENT = "table_consistent"
"""Ring accounting that sums columns-1 hops, as the paper's tables do. It is a
table convention with no message counterpart: a real round's leader ring
sends 2*(columns-1) messages, as MODE_EQUATION_LITERAL draws."""
MODE_EQUATION_LITERAL = "equation_literal"
MODES = (MODE_TABLE_CONSISTENT, MODE_EQUATION_LITERAL)

DEFAULT_TRIALS = 1000
# Trials per derived stream: one hop-delay draw serves a whole block.
BLOCK_TRIALS = 64
SWEEP_TOTALS = (256, 512, 1024, 2048)
# Input caps. A block draws all 2*total_hops + ring hops of its trials at once,
# four to an int16, and every trial keeps four int64 components until the run
# is summarized, so a larger fleet or trial count fails at allocation or
# exhausts memory.
MAX_TOTAL_HOPS = 1 << 16
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class HopsArrayDims:
    rows: int  # hops per cluster chain (cluster size minus one)
    columns: int  # number of cluster chains

    def __post_init__(self):
        if self.rows < 1 or self.columns < 1:
            raise ValueError(f"dims must be positive, got {self.rows}x{self.columns}")

    @property
    def total_hops(self) -> int:
        return self.rows * self.columns

    def __str__(self) -> str:
        return f"{self.rows}x{self.columns}"


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}: want one of {MODES}")
    return mode


def _phase_widths(dims: HopsArrayDims, mode: str) -> tuple[int, int, int]:
    """Hop delays one trial draws for the forward pass, the leader ring and
    redistribute, in draw order."""
    ring_hops = dims.columns - 1
    if mode == MODE_EQUATION_LITERAL:
        ring_hops *= 2
    return dims.total_hops, ring_hops, dims.total_hops


@cache
def _draw_layout(dims: HopsArrayDims, mode: str) -> tuple[int, int, list[tuple[slice, int]]]:
    """(forward draws, draws per trial, short draws) of one trial. Its draws
    run forward chains, ring, redistribute chains; a pass's are laid out
    (draws per chain, columns), so chain c is column c. A short draw ends a
    chain or the ring with only its low `digits` used: (columns, digits)."""
    _, ring, _ = _phase_widths(dims, mode)
    forward = -(-dims.rows // HOPS_PER_DRAW) * dims.columns
    ring_end = forward + -(-ring // HOPS_PER_DRAW)
    width, cols, rest, ring_rest = ring_end + forward, dims.columns, dims.rows % HOPS_PER_DRAW, ring % HOPS_PER_DRAW
    short = [(forward - cols, forward, rest), (width - cols, width, rest), (ring_end - 1, ring_end, ring_rest)]
    return forward, width, [(slice(a, b), digits) for a, b, digits in short if digits]


def _draw_trials(dims: HopsArrayDims, stream: RandomStream, mode: str, size: int) -> np.ndarray:
    """Phase times of `size` trials from one draw of shape (size, draws per trial).

    Row i of the draw is trial i. Gathered through quarter_sums a few rows at
    a time, each kept quarter gives its draw's summed hop delays; a short
    draw is gathered again, by value, through digit_sums. Chains sum in
    int32. Returns int64 rows (cluster_phase, leader_phase,
    redistribute_phase, forward delay over every chain), one column a trial.
    """
    import numpy as np

    forward, width, short = _draw_layout(dims, mode)
    quarters = stream.hop_delays((size, width))
    sums, rows = np.empty((size, width), np.int8), max(1, 2**14 // width)
    for r in range(0, size, rows):  # a slice at a time: take copies its indices to intp
        quarter_sums().take(quarters[r : r + rows], out=sums[r : r + rows])
    for columns, digits in short:
        sums[:, columns] = digit_sums(digits).take(quarters[:, columns].astype(np.uint32) * DRAW_SPAN >> 16)
    forward_sums = np.einsum("ijk->ik", sums[:, :forward].reshape(size, -1, dims.columns), dtype=np.int32)
    redist_sums = np.einsum("ijk->ik", sums[:, -forward:].reshape(size, -1, dims.columns), dtype=np.int32)
    ring_sums = sums[:, forward:-forward].sum(axis=1, dtype=np.int64)
    return np.array((2 * forward_sums.max(axis=1), ring_sums, redist_sums.max(axis=1), forward_sums.sum(axis=1)))


def barrier_latency(chain_hops: Sequence[int], delays: Sequence[int]) -> int:
    """One round's latency under the barrier schedule, each phase starting
    when the last one ends: twice the slowest forward chain (the reverse pass
    retraces it), the ring's 2*(chains-1) hops, and the slowest of freshly
    drawn redistribute chains. chain_hops gives each chain's hops, and delays
    every hop's delay in this order: forward chains, each chain's hops
    together, then the ring, then redistribute chains as forward. That is
    2*sum(chain_hops) + 2*(len(chain_hops)-1) delays: 2n-2 for chains that
    hold n members. Over a trial's hop delays in that order, this is the
    trial's total in MODE_EQUATION_LITERAL."""
    bounds = list(accumulate(chain_hops, initial=0))
    hops, ring = bounds[-1], 2 * (len(chain_hops) - 1)
    if len(delays) != 2 * hops + ring:
        raise ValueError(f"{len(chain_hops)} chains of {hops} hops take {2 * hops + ring} delays, got {len(delays)}")
    spans, off = list(pairwise(bounds)), hops + ring
    forward = max(sum(delays[a:b]) for a, b in spans)
    redistribute = max(sum(delays[off + a : off + b]) for a, b in spans)
    return 2 * forward + sum(delays[hops:off]) + redistribute


def block_stream(seed: int, dims: HopsArrayDims, mode: str, block: int) -> RandomStream:
    """The derived stream of block `block` of a Monte Carlo run: trials
    block*BLOCK_TRIALS up to (block+1)*BLOCK_TRIALS, one per row."""
    return RandomStream(seed, f"timing/{dims.rows}x{dims.columns}/{mode}/block/{block}")


@dataclass(frozen=True)
class ComponentStats:
    mean: float
    lo: float  # 0.5th percentile
    hi: float  # 99.5th percentile

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class SweepRow:
    rows: int
    columns: int
    trials: int
    cluster_phase: ComponentStats
    leader_phase: ComponentStats
    redistribute_phase: ComponentStats
    total: ComponentStats
    mean_cluster_sum: float  # mean forward per-chain hop-delay sum

    @property
    def dims(self) -> HopsArrayDims:
        return HopsArrayDims(rows=self.rows, columns=self.columns)


def _stats(samples: np.ndarray) -> ComponentStats:
    import numpy as np

    lo, hi = np.percentile(samples, [0.5, 99.5])
    return ComponentStats(mean=float(samples.mean()), lo=float(lo), hi=float(hi))


def _trial_components(dims: HopsArrayDims, trials: int, seed: int, mode: str) -> np.ndarray:
    """`_draw_trials` rows for trials 0..trials-1, drawn a whole block at a
    time and cut to `trials`, so trial i is the same whatever the count."""
    import numpy as np

    blocks = -(-trials // BLOCK_TRIALS)
    draws = [_draw_trials(dims, block_stream(seed, dims, mode, j), mode, BLOCK_TRIALS) for j in range(blocks)]
    return np.concatenate(draws, axis=1)[:, :trials]


def monte_carlo(
    dims: HopsArrayDims,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    mode: str = MODE_TABLE_CONSISTENT,
) -> SweepRow:
    """Independent trials over per-block streams, summarized per component."""
    _check_mode(mode)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= {MAX_TRIALS}")
    cluster, leader, redist, forward = _trial_components(dims, trials, seed, mode)
    return SweepRow(
        rows=dims.rows,
        columns=dims.columns,
        trials=trials,
        cluster_phase=_stats(cluster),
        leader_phase=_stats(leader),
        redistribute_phase=_stats(redist),
        total=_stats(cluster + leader + redist),
        mean_cluster_sum=float(forward.mean()) / dims.columns,
    )


def default_factor_pairs(total_hops: int) -> tuple[HopsArrayDims, ...]:
    """Power-of-two splits rows x columns of total_hops with both sides >= 4,
    ordered by descending row count. total_hops must be a power of two from
    16 to MAX_TOTAL_HOPS, so that there is at least one."""
    if not 16 <= total_hops <= MAX_TOTAL_HOPS or total_hops & (total_hops - 1):
        raise ValueError(f"total_hops must be a power of two from 16 to {MAX_TOTAL_HOPS}, got {total_hops}")
    # total_hops = 2**n; columns run 2**2 .. 2**(n-2)
    return tuple(
        HopsArrayDims(rows=total_hops >> k, columns=1 << k) for k in range(2, total_hops.bit_length() - 2)
    )


def sweep(
    total_hops: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    mode: str = MODE_TABLE_CONSISTENT,
) -> list[SweepRow]:
    """Monte Carlo rows for every factorization of total_hops."""
    pairs = default_factor_pairs(total_hops)
    return [monte_carlo(dims, trials=trials, seed=seed, mode=mode) for dims in pairs]


@dataclass(frozen=True)
class OptimumResult:
    dims: HopsArrayDims
    ratio: float  # rows / columns
    row: SweepRow


def find_optimum(
    total_hops: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    mode: str = MODE_TABLE_CONSISTENT,
) -> OptimumResult:
    """Factorization of default_factor_pairs minimizing the mean round total."""
    rows = sweep(total_hops, trials=trials, seed=seed, mode=mode)
    best = min(rows, key=lambda r: r.total.mean)
    dims = best.dims
    return OptimumResult(dims=dims, ratio=dims.rows / dims.columns, row=best)


def optimum_curve(
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    mode: str = MODE_TABLE_CONSISTENT,
) -> list[tuple[int, float]]:
    """(total_hops, optimal mean round time in ms) series, one point per total."""
    out = []
    for total in SWEEP_TOTALS:
        opt = find_optimum(total, trials=trials, seed=seed, mode=mode)
        out.append((total, float(units_to_ms(opt.row.total.mean))))
    return out
