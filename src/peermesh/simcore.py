"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

Time is counted in abstract integer units. One unit corresponds to 50 ms of
wall-clock delay: the worst-case regional round trip (500 ms) divided by the
largest per-hop delay value (10). Every source of randomness is a named
stream derived from a single master seed, so any run can be replayed bit for
bit. World hop delays are counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): block j of a stream is the 64-byte
keyed BLAKE2b (RFC 7693) of its stream id, numbered by its salt, so no
generator state is seeded and the sequence is fixed by the hash's
specification, not by a Python release. Monte Carlo's packed draws are
Lemire's bounded method (ACM TOMACS 2019) run here over PCG64's raw words
(O'Neill, 2014), which NEP 19 keeps stable: numpy loads only when they are drawn.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, NamedTuple

MS_PER_UNIT = 50
HOP_DELAY_MIN = 1
HOP_DELAY_MAX = 10
DEFAULT_SEED = 7919

_MASK64 = (1 << 64) - 1
_HOP_SPAN = HOP_DELAY_MAX - HOP_DELAY_MIN + 1
# A stream block's bytes as hop delays: byte b < 250 is HOP_DELAY_MIN + b % 10,
# so each delay has 25 bytes, and the six bytes 250..255 are dropped.
_DELAY_OF_BYTE = bytes(range(HOP_DELAY_MIN, HOP_DELAY_MAX + 1)) * (256 // _HOP_SPAN) + bytes(256 % _HOP_SPAN)
_DROPPED = bytes(range(256 - 256 % _HOP_SPAN, 256))
# hop_delays packs this many hop delays into each draw, one per decimal digit:
# a draw uniform on {0..DRAW_SPAN-1} is that many independent digits.
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


@cache
def digit_sums(digits: int):
    """int8 table of the hop delays a draw's low `digits` digits carry, summed:
    entry x is the sum of HOP_DELAY_MIN + x // 10**k % 10 over k < digits, for
    x in 0..DRAW_SPAN-1. Built at the first call, so that importing simcore
    loads no numpy."""
    import numpy as np

    draws = np.arange(DRAW_SPAN, dtype=np.int16)
    return sum((draws // 10**k % 10 + HOP_DELAY_MIN).astype(np.int8) for k in range(digits))


@cache
def quarter_sums():
    """int8 table of the hop delays a kept quarter carries, summed: entry q is
    digit_sums(HOPS_PER_DRAW)[(q * DRAW_SPAN) >> 16]. Draw x's quarters run on
    from ceil(x * 2**16 / DRAW_SPAN), so no temporary is 2**16 wide."""
    import numpy as np

    return np.repeat(digit_sums(HOPS_PER_DRAW), np.diff(-(-np.arange(DRAW_SPAN + 1) * 2**16 // DRAW_SPAN)))


class RandomStream:
    """Reproducible random source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream ids derived from the same seed are independent for
    simulation purposes.

    hop_delay and next_delays read the stream's blocks in order: block j is
    blake2b(stream_id in UTF-8, digest_size=64, key=the seed as 8 big-endian
    bytes, salt=j as 16 little-endian bytes), for j = 0, 1, ... Each byte b
    below 250 is the hop delay HOP_DELAY_MIN + b % 10, exactly uniform on
    {HOP_DELAY_MIN..HOP_DELAY_MAX}; bytes 250..255 are dropped, so a block
    gives 62.5 delays on average. A block is read only when a draw needs it,
    and next_delays(k) hands out what k hop_delay() calls would, leaving the
    stream at the same next draw, across block boundaries too. hop_delays
    draws from PCG64 instead, apart from these blocks.
    """

    def __init__(self, seed: int = DEFAULT_SEED, stream_id: str = "root"):
        self.seed = seed
        self.stream_id = stream_id
        self._delays = b""  # hop delays read from blocks, handed out up to _pos
        self._pos = 0
        self._blocks = 0  # blocks read: the next block's number
        self._bits = self._kept = None  # hop_delays' PCG64 and its quarters kept, not yet handed out

    def _read_blocks(self, k: int) -> None:
        """Keep the delays not yet handed out and read blocks until there are
        at least k of them."""
        key, message = check_seed(self.seed).to_bytes(8, "big"), self.stream_id.encode("utf-8")
        delays, j = self._delays[self._pos :], self._blocks
        while len(delays) < k:
            block = hashlib.blake2b(message, digest_size=64, key=key, salt=j.to_bytes(16, "little")).digest()
            delays += block.translate(_DELAY_OF_BYTE, _DROPPED)
            j += 1
        self._delays, self._pos, self._blocks = delays, 0, j

    def hop_delay(self) -> int:
        """The stream's next hop delay, uniform on {HOP_DELAY_MIN..HOP_DELAY_MAX}."""
        pos = self._pos
        if pos == len(self._delays):
            self._read_blocks(1)
            pos = 0
        self._pos = pos + 1
        return self._delays[pos]

    def next_delays(self, k: int) -> list[int]:
        """The next k hop delays as a list: what k hop_delay() calls return."""
        pos = self._pos
        if len(self._delays) - pos < k:
            self._read_blocks(k)
            pos = 0
        self._pos = pos + k
        return list(self._delays[pos : pos + k])

    def hop_delays(self, size):
        """The stream's next kept quarters, a uint16 array of shape `size`.
        Each word of PCG64(derive_seed(seed, stream_id)).random_raw is four
        little-endian 16-bit quarters, low first; q is kept when (q * DRAW_SPAN)
        mod 2**16 >= 2**16 % DRAW_SPAN, and stands for the draw (q * DRAW_SPAN)
        >> 16, uniform on {0..DRAW_SPAN-1}: at a stream's first call, the draws
        of numpy's Generator.integers(0, DRAW_SPAN, dtype=int16). Later calls
        continue one sequence. A draw carries HOPS_PER_DRAW hop delays, units
        digit first: digit k is HOP_DELAY_MIN + draw // 10**k % 10."""
        import numpy as np

        if self._bits is None:
            self._bits, self._kept = np.random.PCG64(derive_seed(self.seed, self.stream_id)), np.empty(0, "<u2")
        n, parts, have = math.prod(size) if isinstance(size, tuple) else size, [self._kept], len(self._kept)
        while have < n:  # over-draw by n/8; 2**13 words a pass at most, for compress's intp indices
            words = self._bits.random_raw(min(2**13, -(-(n - have + n // 8) // 4)))
            quarters = words.astype("<u8", copy=False).view("<u2")
            parts.append(quarters.compress(quarters * np.uint16(DRAW_SPAN) >= 2**16 % DRAW_SPAN))
            have += len(parts[-1])
        kept = np.concatenate(parts) if have > len(parts[-1]) else parts[-1]
        self._kept = kept[n:]
        return kept[:n].reshape(size)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id!r})"


class SimEvent(NamedTuple):
    """A scheduled occurrence: its time, kind and payload. The engine queues it
    by its time alone, so kind and payload are the caller's and are never
    compared."""

    at: int
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
    """Single-threaded event loop over a time-ordered queue.

    The queue is a heap of the distinct pending times and a FIFO deque of
    events for each, a calendar queue in the sense of Brown (CACM 31(10),
    1988): events at one time run in the order they were scheduled, and one
    that a handler schedules at the current time runs after those already
    queued there. All state mutation in a simulation happens from inside event
    handlers, one event at a time; the clock never moves backwards.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.master_seed = seed
        self.now: int = 0
        self._times: list[int] = []  # heap of the times that have a deque below
        self._queues: dict[int, deque[SimEvent]] = {}

    def stream(self, label: str) -> RandomStream:
        return RandomStream(self.master_seed, label)

    def schedule(self, at: int, kind: str, payload: Any = None) -> SimEvent:
        """Queue an event at virtual time at, behind every event already queued
        there. The engine only orders events: kind and payload reach the
        handler as given."""
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before current time {self.now}")
        ev = tuple.__new__(SimEvent, (at, kind, payload))  # SimEvent's own __new__ runs in Python
        queue = self._queues.get(at)
        if queue is None:
            queue = self._queues[at] = deque()
            heapq.heappush(self._times, at)
        queue.append(ev)
        return ev

    def run(self, handler: Handler | None = None, horizon: int | None = None) -> RunResult:
        """Hand each event to handler, by time and at a tie in scheduling order,
        until the queue drains.

        Each event leaves the queue before its handler runs, and nothing of a
        processed event is kept: a caller that wants a record makes it in its
        handler. With a horizon, events beyond it stay queued and the result
        is marked truncated; that is a defined outcome, not a failure, and a
        later run() picks them up.
        """
        times, queues = self._times, self._queues
        count = 0
        while times:
            at = times[0]
            if horizon is not None and at > horizon:
                return RunResult(count, truncated=True)
            self.now = at
            queue = queues[at]
            while queue:
                ev = queue.popleft()
                count += 1
                if handler is not None:
                    handler(self, ev)
            del queues[at]
            heapq.heappop(times)
        return RunResult(count)
