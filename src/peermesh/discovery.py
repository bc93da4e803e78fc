"""Instance discovery: download registry, bootstrap, scans, router refresh.

A new instance learns its first peers from an excerpt of the download
registry (the nearest prior registrants by address distance), probes them
nearest-first, and falls back to advertising itself in a search-engine
directory when nobody answers. Introductions for targets that were offline
are queued and resolve exactly once: delivered on reactivation or expired
at their deadline.
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
    domain: str
    is_router: bool = False


class SearchEngineDirectory:
    """Global advertisement directory of last resort."""

    def __init__(self):
        self._ads: dict[NodeAddress, AdRecord] = {}

    def advertise(self, address: NodeAddress, domain: str, is_router: bool = False) -> None:
        self._ads[address] = AdRecord(address=address, domain=domain, is_router=is_router)

    def deregister(self, address: NodeAddress) -> bool:
        return self._ads.pop(address, None) is not None

    def advertised(self) -> tuple[AdRecord, ...]:
        return tuple(self._ads[a] for a in sorted(self._ads))

    def __contains__(self, address: NodeAddress) -> bool:
        return address in self._ads

    def __len__(self) -> int:
        return len(self._ads)


@dataclass
class Introduction:
    sender: NodeAddress
    target: NodeAddress
    deadline: int
    resolved: str | None = None  # "delivered" | "expired"


class IntroductionQueue:
    """Held introductions for offline targets; each resolves exactly once."""

    def __init__(self):
        self._items: list[Introduction] = []

    def add(self, sender: NodeAddress, target: NodeAddress, deadline: int) -> Introduction:
        item = Introduction(sender=sender, target=target, deadline=deadline)
        self._items.append(item)
        return item

    def deliver_for(self, target: NodeAddress, now: int) -> list[Introduction]:
        """Hand over everything queued for a reactivated target before its deadline."""
        out = []
        for item in self._items:
            if item.resolved is None and item.target == target and now < item.deadline:
                item.resolved = "delivered"
                out.append(item)
        return out

    def expire_due(self, now: int) -> list[Introduction]:
        out = []
        for item in self._items:
            if item.resolved is None and now >= item.deadline:
                item.resolved = "expired"
                out.append(item)
        return out

    def pending(self) -> tuple[Introduction, ...]:
        return tuple(i for i in self._items if i.resolved is None)


@dataclass(frozen=True)
class ProbeAttempt:
    target: NodeAddress
    at: int
    alive: bool


@dataclass(frozen=True)
class BootstrapResult:
    origin: NodeAddress
    connected_to: NodeAddress | None
    attempts: tuple[ProbeAttempt, ...]
    dead_targets: tuple[NodeAddress, ...]
    finished_at: int

    @property
    def isolated(self) -> bool:
        return self.connected_to is None


def probe_order(origin: NodeAddress, excerpt: DirectoryExcerpt) -> tuple[NodeAddress, ...]:
    """Excerpt targets in ascending address-distance order, ties to lower address."""
    return tuple(
        sorted(excerpt.addresses(), key=lambda a: (address_distance(a, origin), a))
    )


def bootstrap(
    origin: NodeAddress,
    excerpt: DirectoryExcerpt,
    is_active: Liveness,
    stream: RandomStream,
    now: int,
) -> BootstrapResult:
    """Probe excerpt targets nearest-first until one answers.

    Each attempt costs one sampled hop delay on a local clock cursor. Dead
    targets are reported so the caller can queue introductions for them; if
    every target is dead (or the excerpt is empty) the instance must fall
    back to the search-engine directory (the result is isolated).
    """
    t = now
    attempts: list[ProbeAttempt] = []
    dead: list[NodeAddress] = []
    for target in probe_order(origin, excerpt):
        t += stream.hop_delay()
        alive = is_active(target)
        attempts.append(ProbeAttempt(target=target, at=t, alive=alive))
        if alive:
            return BootstrapResult(
                origin=origin,
                connected_to=target,
                attempts=tuple(attempts),
                dead_targets=tuple(dead),
                finished_at=t,
            )
        dead.append(target)
    return BootstrapResult(
        origin=origin,
        connected_to=None,
        attempts=tuple(attempts),
        dead_targets=tuple(dead),
        finished_at=t,
    )


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
) -> tuple[NeighborhoodMap, tuple[NodeAddress, ...]]:
    """Fold advertised stray clients inside the router's span into the map.

    Non-router advertisements whose address falls within the neighborhood's
    member address span are added as members and deregistered from the
    directory; router advertisements always stay up.
    """
    if router not in nmap:
        raise ValueError(f"refresh by non-member {router}")
    lo, hi = nmap.members[0].address, nmap.members[-1].address
    added = []
    for ad in directory.advertised():
        if ad.is_router or ad.address in nmap:
            continue
        if lo <= ad.address <= hi:
            nmap = nmap.add(NodeRecord(address=ad.address, domain=ad.domain))
            directory.deregister(ad.address)
            added.append(ad.address)
    return nmap, tuple(added)
