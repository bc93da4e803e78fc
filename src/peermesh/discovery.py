"""Instance discovery: download registry, bootstrap, introductions, router refresh.

A new instance learns its first peers from an excerpt of the download
registry: the nearest prior registrants by address distance, ties to the
lower address. The excerpt's order is the probe order, so the instance
probes it front to back and falls back to advertising itself in a
search-engine directory when nobody answers. Introductions for targets that
were offline are held, at most one per (sender, target) pair, and resolve
exactly once: delivered on reactivation or expired at their deadline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .simcore import RandomStream
from .topology import NeighborhoodMap, NodeAddress, NodeRecord, address_distance

EXCERPT_CAP = 16

Liveness = Callable[[NodeAddress], bool]


class DownloadRegistry:
    """Every address downloaded so far, sorted, and the time of the last download."""

    def __init__(self):
        self._known: list[NodeAddress] = []
        self._last_at: int | None = None

    def register(self, address: NodeAddress, at: int, cap: int = EXCERPT_CAP) -> tuple[NodeAddress, ...]:
        """Record a download and return the excerpt handed to the instance.

        The excerpt holds the cap nearest prior registrants by address
        distance, ties to the lower address, excluding the registrant itself.
        Its order is the probe order, nearer first: a merge of the registrants
        below its bisect point in the sorted registry, walked down, and those
        above it, walked up, in which a tie goes to the one below. That costs
        O(cap + log n) plus one list insert; a known address adds nothing.
        """
        if cap < 0:
            raise ValueError(f"excerpt cap must be non-negative, got {cap}")
        if self._last_at is not None and at < self._last_at:
            raise ValueError(f"download at {at} precedes the last download at {self._last_at}")
        known = self._known
        i = bisect_left(known, address)
        seen = i < len(known) and known[i] == address
        below, above = known[max(i - cap, 0) : i][::-1], known[i + seen : i + seen + cap]
        excerpt, lo, hi, nb, na = [], 0, 0, len(below), len(above)
        while lo < nb and hi < na and lo + hi < cap:
            if address_distance(below[lo], address) <= address_distance(above[hi], address):
                excerpt.append(below[lo])
                lo += 1
            else:
                excerpt.append(above[hi])
                hi += 1
        left = cap - lo - hi  # one side ran out, or the excerpt is full
        excerpt = tuple(excerpt + below[lo : lo + left] + above[hi : hi + left])
        if not seen:
            known.insert(i, address)
        self._last_at = at
        return excerpt


class Introduction(NamedTuple):
    sender: NodeAddress
    target: NodeAddress
    deadline: int


class IntroductionQueue:
    """Held introductions for offline targets, keyed by (sender, target).

    Delivery and expiry pop what they return, so each introduction resolves
    exactly once; both return in queue order. The queue is indexed by target
    and by deadline, so each call costs about what it returns: delivery reads
    only its target's items, and expiry pops a heap of (deadline, queue order,
    item) whose entries for items already resolved are dropped as they surface.
    """

    def __init__(self):
        self._items: dict[tuple[NodeAddress, NodeAddress], Introduction] = {}
        self._by_target: dict[NodeAddress, dict[NodeAddress, Introduction]] = {}  # target -> sender -> item
        self._deadlines: list[tuple[int, int, Introduction]] = []
        self._added = 0

    def add(self, sender: NodeAddress, target: NodeAddress, deadline: int) -> Introduction:
        if (sender, target) in self._items:
            raise ValueError(f"introduction {sender} -> {target} is already pending")
        item = self._items[sender, target] = Introduction(sender, target, deadline)
        self._by_target.setdefault(target, {})[sender] = item
        heapq.heappush(self._deadlines, (deadline, self._added, item))
        self._added += 1
        return item

    def _resolve(self, item: Introduction) -> None:
        del self._items[item.sender, item.target]
        senders = self._by_target[item.target]
        del senders[item.sender]
        if not senders:
            del self._by_target[item.target]

    def deliver_for(self, target: NodeAddress, now: int) -> list[Introduction]:
        """Hand over everything queued for a reactivated target before its deadline."""
        out = [item for item in self._by_target.get(target, {}).values() if now < item.deadline]
        for item in out:
            self._resolve(item)
        return out

    def expire_due(self, now: int) -> list[Introduction]:
        heap, due = self._deadlines, []
        while heap and heap[0][0] <= now:
            _deadline, order, item = heapq.heappop(heap)
            if self._items.get((item.sender, item.target)) is item:  # pending, and not since requeued
                due.append((order, item))
        due.sort()
        for _order, item in due:
            self._resolve(item)
        return [item for _order, item in due]

    def pending(self) -> tuple[Introduction, ...]:
        return tuple(self._items.values())

    def __contains__(self, pair: tuple[NodeAddress, NodeAddress]) -> bool:
        return pair in self._items


@dataclass(frozen=True)
class ProbeAttempt:
    target: NodeAddress
    at: int
    alive: bool


@dataclass(frozen=True)
class BootstrapResult:
    attempts: tuple[ProbeAttempt, ...]
    finished_at: int

    @property
    def connected_to(self) -> NodeAddress | None:
        """The target that answered: the last attempt, if it was alive."""
        if self.attempts and self.attempts[-1].alive:
            return self.attempts[-1].target
        return None

    @property
    def dead_targets(self) -> tuple[NodeAddress, ...]:
        return tuple(a.target for a in self.attempts if not a.alive)


def bootstrap(
    excerpt: tuple[NodeAddress, ...],
    is_active: Liveness,
    stream: RandomStream,
    now: int,
) -> BootstrapResult:
    """Probe the excerpt's targets in its order until one answers.

    Each attempt costs one sampled hop delay on a local clock cursor. Dead
    targets are reported so the caller can queue introductions for them; if
    every target is dead (or the excerpt is empty) nobody is connected and
    the instance must fall back to the search-engine directory.
    """
    t = now
    attempts: list[ProbeAttempt] = []
    for target in excerpt:
        t += stream.hop_delay()
        attempts.append(ProbeAttempt(target=target, at=t, alive=is_active(target)))
        if attempts[-1].alive:
            break
    return BootstrapResult(attempts=tuple(attempts), finished_at=t)


def router_refresh(
    router: NodeAddress,
    directory: set[NodeAddress],
    nmap: NeighborhoodMap,
    record_of: Callable[[NodeAddress], NodeRecord],
) -> tuple[NeighborhoodMap, tuple[NodeAddress, ...]]:
    """Fold advertised stray clients inside the router's span into the map.

    Advertised addresses within the neighborhood's member address span are
    added as members, with the record that record_of returns for them, and
    deregistered from the directory.
    """
    if router not in nmap:
        raise ValueError(f"refresh by non-member {router}")
    lo, hi = nmap.members[0].address, nmap.members[-1].address
    added = []
    for addr in sorted(directory):
        if lo <= addr <= hi and addr not in nmap:
            nmap = nmap.add(record_of(addr))
            directory.discard(addr)
            added.append(addr)
    return nmap, tuple(added)
