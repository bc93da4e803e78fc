"""Instance discovery: download registry, bootstrap, scans, router refresh.

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
from dataclasses import dataclass
from typing import Callable

from .simcore import RandomStream
from .topology import NeighborhoodMap, NodeAddress, NodeRecord, address_distance, parse_address

EXCERPT_CAP = 16

Liveness = Callable[[NodeAddress], bool]


@dataclass(frozen=True)
class DownloadRecord:
    address: NodeAddress
    domain: str
    at: int


@dataclass(frozen=True)
class DirectoryExcerpt:
    """Prior registrants, nearest by address distance first."""

    entries: tuple[DownloadRecord, ...]

    def addresses(self) -> tuple[NodeAddress, ...]:
        return tuple(r.address for r in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class DownloadRegistry:
    """Append-only download log ordered by download time."""

    def __init__(self):
        self._records: list[DownloadRecord] = []
        self._latest: dict[NodeAddress, DownloadRecord] = {}

    def register(
        self, address: NodeAddress, domain: str, at: int, cap: int = EXCERPT_CAP
    ) -> DirectoryExcerpt:
        """Append a download and return the excerpt handed to the instance.

        The excerpt holds the cap nearest prior registrants by address
        distance (ties to the lower address), deduplicated by address and
        excluding the registrant itself.
        """
        if cap < 0:
            raise ValueError(f"excerpt cap must be non-negative, got {cap}")
        if self._records and at < self._records[-1].at:
            raise ValueError(f"download at {at} precedes the last record at {self._records[-1].at}")
        others = (r for r in self._latest.values() if r.address != address)
        nearest = heapq.nsmallest(
            cap, others, key=lambda r: (address_distance(r.address, address), r.address)
        )
        self._records.append(DownloadRecord(address=address, domain=domain, at=at))
        self._latest[address] = self._records[-1]
        return DirectoryExcerpt(entries=tuple(nearest))

    def __len__(self) -> int:
        return len(self._records)


@dataclass(frozen=True)
class AdRecord:
    address: NodeAddress
    is_router: bool = False


class SearchEngineDirectory:
    """Global advertisement directory of last resort."""

    def __init__(self):
        self._ads: dict[NodeAddress, AdRecord] = {}

    def advertise(self, address: NodeAddress, is_router: bool = False) -> None:
        self._ads[address] = AdRecord(address=address, is_router=is_router)

    def deregister(self, address: NodeAddress) -> bool:
        return self._ads.pop(address, None) is not None

    def advertised(self) -> tuple[AdRecord, ...]:
        return tuple(self._ads[a] for a in sorted(self._ads))

    def __contains__(self, address: NodeAddress) -> bool:
        return address in self._ads

    def __len__(self) -> int:
        return len(self._ads)


@dataclass(frozen=True)
class Introduction:
    sender: NodeAddress
    target: NodeAddress
    deadline: int


class IntroductionQueue:
    """Held introductions for offline targets, keyed by (sender, target).

    Delivery and expiry pop what they return, so each introduction resolves
    exactly once; both return in queue order.
    """

    def __init__(self):
        self._items: dict[tuple[NodeAddress, NodeAddress], Introduction] = {}

    def add(self, sender: NodeAddress, target: NodeAddress, deadline: int) -> Introduction:
        if (sender, target) in self._items:
            raise ValueError(f"introduction {sender} -> {target} is already pending")
        item = self._items[sender, target] = Introduction(sender, target, deadline)
        return item

    def _pop(self, due: Callable[[Introduction], bool]) -> list[Introduction]:
        out = [item for item in self._items.values() if due(item)]
        for item in out:
            del self._items[item.sender, item.target]
        return out

    def deliver_for(self, target: NodeAddress, now: int) -> list[Introduction]:
        """Hand over everything queued for a reactivated target before its deadline."""
        return self._pop(lambda item: item.target == target and now < item.deadline)

    def expire_due(self, now: int) -> list[Introduction]:
        return self._pop(lambda item: now >= item.deadline)

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
    excerpt: DirectoryExcerpt,
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
    for target in excerpt.addresses():
        t += stream.hop_delay()
        attempts.append(ProbeAttempt(target=target, at=t, alive=is_active(target)))
        if attempts[-1].alive:
            break
    return BootstrapResult(attempts=tuple(attempts), finished_at=t)


@dataclass(frozen=True)
class ScanResult:
    found: tuple[NodeAddress, ...]
    probed: int


def neighborhood_scan(
    address_range: tuple[NodeAddress, NodeAddress],
    last_known: NodeAddress,
    budget: int,
    is_active: Liveness,
) -> ScanResult:
    """Probe ascending from the last-known address, wrapping inside the range.

    A reconnecting peer usually reappears near its old address, so the scan
    starts just above it and wraps around the range at most once, spending at
    most `budget` probes.
    """
    lo, hi = address_range
    if lo > hi:
        raise ValueError("address range is inverted")
    if not lo <= last_known <= hi:
        raise ValueError("last-known address outside the range")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    span = hi - lo + 1
    found: list[NodeAddress] = []
    probes = min(budget, span)
    cursor = last_known
    for _ in range(probes):
        cursor += 1
        if cursor > hi:
            cursor = lo
        addr = parse_address(cursor)
        if is_active(addr):
            found.append(addr)
    return ScanResult(found=tuple(found), probed=probes)


def router_refresh(
    router: NodeAddress,
    directory: SearchEngineDirectory,
    nmap: NeighborhoodMap,
    record_of: Callable[[NodeAddress], NodeRecord],
) -> tuple[NeighborhoodMap, tuple[NodeAddress, ...]]:
    """Fold advertised stray clients inside the router's span into the map.

    Non-router advertisements whose address falls within the neighborhood's
    member address span are added as members, with the record that
    record_of returns for them, and deregistered from the directory; router
    advertisements always stay up.
    """
    if router not in nmap:
        raise ValueError(f"refresh by non-member {router}")
    lo, hi = nmap.members[0].address, nmap.members[-1].address
    added = []
    for ad in directory.advertised():
        if ad.is_router or ad.address in nmap:
            continue
        if lo <= ad.address <= hi:
            nmap = nmap.add(record_of(ad.address))
            directory.deregister(ad.address)
            added.append(ad.address)
    return nmap, tuple(added)
