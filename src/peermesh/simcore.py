"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

Time is counted in abstract integer units. One unit corresponds to 50 ms of
wall-clock delay: the worst-case regional round trip (500 ms) divided by the
largest per-hop delay value (10). Every source of randomness is a named
stream derived from a single master seed, so any run can be replayed bit for
bit.

NEP 19 leaves numpy free to change the algorithm behind `Generator.integers`
between releases, and every golden report and replay rests on the exact hop
delays, so hop_delay owns the three algorithms behind numpy's
`Generator(PCG64(seed)).integers(1, 10, endpoint=True)` and loads no numpy:
  - SeedSequence: a pool of 4 32-bit words mixed from the seed's 32-bit words;
  - PCG64: a 128-bit LCG with the XSL-RR 128/64 output (O'Neill, 2014);
  - Lemire's bounded draw (ACM TOMACS 2019) on each 32-bit half u of a 64-bit
    output, low half first: (u * 10 >> 32) + 1, rejecting u when the low 32
    bits of u * 10 fall below 2**32 % 10 = 6.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Any, Callable, Iterator, NamedTuple

MS_PER_UNIT = 50
HOP_DELAY_MIN = 1
HOP_DELAY_MAX = 10
DEFAULT_SEED = 7919

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HOP_SPAN = HOP_DELAY_MAX - HOP_DELAY_MIN + 1
_HOP_REJECT = (1 << 32) % _HOP_SPAN  # Lemire's threshold: 6
# hop_delays packs this many hop delays into each int16 draw, one per decimal
# digit: a draw uniform on {0..DRAW_SPAN-1} is that many independent digits.
HOPS_PER_DRAW = 4
DRAW_SPAN = _HOP_SPAN**HOPS_PER_DRAW


def units_to_ms(units: int | float) -> int | float:
    """Convert virtual time units to milliseconds (1 unit = 50 ms).

    Integer input yields an exact integer result; float input (e.g. a Monte
    Carlo mean) yields a float.
    """
    if units < 0:
        raise ValueError(f"virtual time must be non-negative, got {units!r}")
    return units * MS_PER_UNIT


def check_seed(seed: int) -> int:
    """`seed` if it is a master seed, 0..2**64-1: one outside would alias one inside."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in 0..{_MASK64}, got {seed}")
    return seed


def derive_seed(master_seed: int, stream_id: str) -> int:
    """Map (master seed, stream id) to a stable 64-bit child seed.

    Uses keyed blake2b so the mapping is independent of PYTHONHASHSEED and
    identical across platforms and runs.
    """
    key = check_seed(master_seed).to_bytes(8, "big")
    digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "big")


def _pcg64_seed(entropy: int) -> list[int]:
    """[state, increment] of numpy's PCG64(entropy), 0 <= entropy < 2**128:
    SeedSequence(entropy).generate_state(4, uint64) as (initstate, initseq),
    then PCG's srandom."""
    const = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    # the seed's 32-bit words, low first; numpy fills the rest of the pool with 0
    pool = [hashmix(entropy >> shift & _MASK32) for shift in range(0, 128, 32)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    seed = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & _MASK128
    state = (((inc + (seed[0] << 64 | seed[1])) & _MASK128) * _PCG_MULT + inc) & _MASK128
    return [state, inc]


def _hop_draws(state: int, inc: int) -> Iterator[int]:
    """Hop delays from the PCG64 generator at [state, inc], one per 32-bit
    half of each 64-bit output that Lemire's draw keeps, low half first."""
    mult, mask32, mask64, mask128 = _PCG_MULT, _MASK32, _MASK64, _MASK128
    reject, span, least = _HOP_REJECT, _HOP_SPAN, HOP_DELAY_MIN
    while True:
        state = (state * mult + inc) & mask128
        rot = state >> 122
        out = (state >> 64 ^ state) & mask64
        out = (out >> rot | out << 64 - rot) & mask64
        low = (out & mask32) * span
        if low & mask32 >= reject:
            yield least + (low >> 32)
        high = (out >> 32) * span
        if high & mask32 >= reject:
            yield least + (high >> 32)


@cache
def digit_sums():
    """int16 table of the hop delays packed draws carry, summed: entry
    d*DRAW_SPAN + x is the sum over the low d digits of draw x, for d in
    0..HOPS_PER_DRAW. Built at the first call, so that importing simcore
    loads no numpy."""
    import numpy as np

    draws = np.arange(DRAW_SPAN)
    sums = np.zeros((HOPS_PER_DRAW + 1, DRAW_SPAN), dtype=np.int16)
    for d in range(HOPS_PER_DRAW):
        sums[d + 1] = sums[d] + draws // 10**d % 10 + HOP_DELAY_MIN
    return sums.ravel()


class RandomStream:
    """Reproducible random source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream ids derived from the same seed are independent for
    simulation purposes. hop_delay and hop_delays each set up their own
    generator on derive_seed(seed, stream_id) at their first call.
    """

    def __init__(self, seed: int = DEFAULT_SEED, stream_id: str = "root"):
        self.seed = seed
        self.stream_id = stream_id
        self._draws: Iterator[int] | None = None  # _hop_draws behind hop_delay
        self._gen = None  # numpy's Generator behind hop_delays

    def hop_delay(self) -> int:
        """The next uniform draw on {HOP_DELAY_MIN..HOP_DELAY_MAX}: the value
        numpy's scalar Generator(PCG64(derive_seed(seed, stream_id))).integers(
        1, 10, endpoint=True) gives at the same position, drawn only when asked."""
        draws = self._draws
        if draws is None:
            draws = self._draws = _hop_draws(*_pcg64_seed(derive_seed(self.seed, self.stream_id)))
        return next(draws)

    def hop_delays(self, size):
        """An int16 array of packed hop delays from numpy's Generator.integers,
        each uniform on {0..DRAW_SPAN-1}. A draw carries HOPS_PER_DRAW hop
        delays, one per decimal digit, units digit first: digit k is the hop
        delay HOP_DELAY_MIN + draw // 10**k % 10. A caller that needs fewer
        hops from a draw uses its low digits."""
        import numpy as np

        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(derive_seed(self.seed, self.stream_id)))
        return self._gen.integers(0, DRAW_SPAN, size=size, dtype=np.int16)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id!r})"


class SimEvent(NamedTuple):
    """A scheduled occurrence, held on the heap as it is: kind and payload are
    the caller's. Heap order is (at, seq), and the engine hands each seq out
    once, so no kind or payload is ever compared."""

    at: int
    seq: int
    kind: str
    payload: Any = None


@dataclass(frozen=True, slots=True)
class RunResult:
    """What one Engine.run did: how many events it processed (also its len())
    and whether the horizon left events queued."""

    events: int
    truncated: bool = False

    def __len__(self) -> int:
        return self.events


Handler = Callable[["Engine", SimEvent], None]


class Engine:
    """Single-threaded event loop over a (at, seq)-ordered queue.

    All state mutation in a simulation happens from inside event handlers,
    one event at a time; the clock never moves backwards.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.master_seed = seed
        self.now: int = 0
        self._heap: list[SimEvent] = []
        self._next_seq = 0

    def stream(self, label: str) -> RandomStream:
        return RandomStream(self.master_seed, label)

    def schedule(self, at: int, kind: str, payload: Any = None) -> SimEvent:
        """Queue an event at virtual time at, on the next seq, so events at one
        time run in the order they were scheduled. The engine only orders
        events: kind and payload reach the handler as given."""
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before current time {self.now}")
        ev = SimEvent(at, self._next_seq, kind, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def run(self, handler: Handler | None = None, horizon: int | None = None) -> RunResult:
        """Hand each event to handler in (at, seq) order until the queue drains.

        Nothing of a processed event is kept: a caller that wants a record
        makes it in its handler. With a horizon, events beyond it stay queued
        and the result is marked truncated; that is a defined outcome, not a
        failure, and a later run() picks them up.
        """
        heap, pop = self._heap, heapq.heappop
        count = 0
        while heap:
            if horizon is not None and heap[0][0] > horizon:
                return RunResult(count, truncated=True)
            ev = pop(heap)
            self.now = ev[0]
            count += 1
            if handler is not None:
                handler(self, ev)
        return RunResult(count)
