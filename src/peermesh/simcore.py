"""Deterministic discrete-event core: virtual clock, event queue, seeded streams.

Time is counted in abstract integer units. One unit corresponds to 50 ms of
wall-clock delay: the worst-case regional round trip (500 ms) divided by the
largest per-hop delay value (10). Every source of randomness is a named
stream derived from a single master seed, so any run can be replayed bit for
bit.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

MS_PER_UNIT = 50
HOP_DELAY_MIN = 1
HOP_DELAY_MAX = 10
DEFAULT_SEED = 7919
_HOP_BUFFER = 64  # draws per refill of a stream's hop_delay buffer

# Event kind discriminants used by the simulation layers.
KIND_MESSAGE = "message-delivery"
KIND_NODE_UP = "node-up"
KIND_NODE_DOWN = "node-down"
KIND_TIMER = "timer"
KIND_BEACON = "beacon"


def units_to_ms(units: int | float) -> int | float:
    """Convert virtual time units to milliseconds (1 unit = 50 ms).

    Integer input yields an exact integer result; float input (e.g. a Monte
    Carlo mean) yields a float.
    """
    if units < 0:
        raise ValueError(f"virtual time must be non-negative, got {units!r}")
    return units * MS_PER_UNIT


def derive_seed(master_seed: int, stream_id: str) -> int:
    """Map (master seed, stream id) to a stable 64-bit child seed.

    Uses keyed blake2b so the mapping is independent of PYTHONHASHSEED and
    identical across platforms and runs.
    """
    key = (master_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "big")


class RandomStream:
    """Reproducible random source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream ids derived from the same seed are independent for
    simulation purposes.
    """

    def __init__(self, seed: int = DEFAULT_SEED, stream_id: str = "root"):
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.PCG64(derive_seed(seed, stream_id)))
        self._hops: list[int] = []  # buffered hop_delay draws, next one last

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on the inclusive range [low, high]."""
        return self._gen.integers(low, high, size=size, endpoint=True)

    def hop_delay(self) -> int:
        """One hop delay from a batch of draws, which replays the scalar draws only
        while hop_delay is the stream's single consumer: mix in no other draw method.
        The draws may be spread over many events; the buffer goes with the stream."""
        if not self._hops:
            self._hops = self.integers(HOP_DELAY_MIN, HOP_DELAY_MAX, size=_HOP_BUFFER).tolist()[::-1]
        return self._hops.pop()

    def hop_delays(self, size) -> np.ndarray:
        """An int16 array of hop delays: numpy draws int16 faster than
        int64. Sum it with an int64 accumulator."""
        return self._gen.integers(HOP_DELAY_MIN, HOP_DELAY_MAX, size=size, endpoint=True, dtype=np.int16)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id!r})"


class SimEvent(NamedTuple):
    """A scheduled occurrence, held on the heap as it is. Heap order is
    (at, seq), and seq is unique, so no kind, target or payload is ever
    compared: the engine hands each seq out once, and a seq reserved with
    Engine.reserve is used by one event at most."""

    at: int
    seq: int
    kind: str
    target: Any = None
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

    def reserve(self, count: int) -> int:
        """Hand out count consecutive seqs without queueing anything, and return
        the first. An event scheduled later on one of them runs where it would
        have run had it been scheduled now: ahead of any event at the same time
        that was scheduled after the reservation. Use each reserved seq once."""
        if count < 0:
            raise ValueError(f"cannot reserve {count} seqs")
        first = self._next_seq
        self._next_seq += count
        return first

    def schedule(
        self, at: int, kind: str, target: Any = None, payload: Any = None, seq: int | None = None
    ) -> SimEvent:
        """Queue an event at virtual time at, on the next fresh seq or on seq,
        which must come from an earlier reserve(). An event on a reserved seq
        must lie in the future: at the current time, it could sort ahead of
        an event that has already run."""
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before current time {self.now}")
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        elif not 0 <= seq < self._next_seq:
            raise ValueError(f"seq {seq} was never handed out")
        elif at == self.now:
            raise ValueError(f"an event on reserved seq {seq} must lie after {self.now}")
        ev = SimEvent(at, seq, kind, target, payload)
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
