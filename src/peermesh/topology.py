"""Node addressing, neighborhood maps, clustering and router election.

An address is a 32-bit integer: hashed, ordered and measured as that number,
and printed as a dotted quad. A neighborhood map is an immutable snapshot;
every mutation returns a new snapshot. Clusters are contiguous chunks of the
sorted active membership, the lowest address in each chunk acting as cluster
leader.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from ipaddress import IPv4Address
from typing import Iterable, Sequence

# A router candidate's thresholds, both inclusive.
MIN_UPTIME_FRACTION = 0.9
MIN_CAPACITY_BPS = 128_000.0


class _DottedQuads(dict):
    """Address -> its dotted-quad text, filled on an address's first lookup."""

    def __missing__(self, address: int) -> str:
        text = self[address] = ".".join(map(str, address.to_bytes(4, "big")))
        return text


# The one address-to-text table. A world prints its few thousand addresses
# ~10^5 times, so its renderers call DOTTED.__getitem__ directly: one C-level
# lookup, where str() would run NodeAddress.__str__ in Python.
DOTTED = _DottedQuads()


class NodeAddress(int):
    """A 32-bit address: an int that prints as a dotted quad. Built by parse_address."""

    __slots__ = ()

    def __str__(self) -> str:
        return DOTTED[self]

    __repr__ = __str__


class EmptyNeighborhoodError(ValueError):
    """Raised when an operation needs active members and there are none."""


class NotAMemberError(ValueError):
    """Raised when an address is not part of the membership at hand."""


class NoSplitNeeded(ValueError):
    """Raised by subdivide when membership is at or below critical mass."""


# Each octet's text as IPv4Address accepts it: 1-3 ASCII digits, at most 255,
# with no leading zero.
_OCTETS = {str(n): n for n in range(256)}


def parse_address(value: str | int | IPv4Address) -> NodeAddress:
    """Accept dotted-quad text, a 32-bit integer, or an existing address.
    Four octets as IPv4Address accepts them are read directly; any other
    input goes to IPv4Address, which accepts or rejects it."""
    if isinstance(value, NodeAddress):
        return value
    if type(value) is str:
        octets = [_OCTETS.get(part) for part in value.split(".")]
        if len(octets) == 4 and None not in octets:
            a, b, c, d = octets
            return NodeAddress(a << 24 | b << 16 | c << 8 | d)
    return NodeAddress(IPv4Address(value))


def address_distance(a: NodeAddress, b: NodeAddress) -> int:
    """Absolute difference of the 32-bit address values.

    Stands in for network proximity: numerically close addresses tend to sit
    in the same provider range.
    """
    return abs(a - b)


@dataclass(frozen=True)
class NodeRecord:
    address: NodeAddress
    uptime_fraction: float = 1.0
    link_capacity_bps: float = 1_000_000.0
    active: bool = True
    metric: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.uptime_fraction <= 1.0:
            raise ValueError(f"uptime_fraction out of [0, 1]: {self.uptime_fraction}")
        if self.link_capacity_bps <= 0:
            raise ValueError("link_capacity_bps must be positive")
        if self.metric < 0:
            raise ValueError("metric must be non-negative")


@dataclass(frozen=True)
class NeighborhoodMap:
    """Sorted, duplicate-free membership snapshot."""

    members: tuple[NodeRecord, ...] = ()
    remote_routers: tuple[NodeAddress, ...] = ()

    @classmethod
    def build(cls, records: Iterable[NodeRecord]) -> "NeighborhoodMap":
        recs = sorted(records, key=lambda r: r.address)
        addrs = [r.address for r in recs]
        if len(set(addrs)) != len(addrs):
            raise ValueError("duplicate addresses in membership")
        return cls(members=tuple(recs))

    # -- queries ---------------------------------------------------------

    def member(self, address: NodeAddress) -> NodeRecord | None:
        i = bisect_left(self.members, address, key=lambda r: r.address)
        if i < len(self.members) and self.members[i].address == address:
            return self.members[i]
        return None

    def active_members(self) -> tuple[NodeRecord, ...]:
        return tuple(r for r in self.members if r.active)

    def __contains__(self, address: NodeAddress) -> bool:
        return self.member(address) is not None

    def __len__(self) -> int:
        return len(self.members)

    # -- mutations (return new snapshots) --------------------------------

    def add(self, record: NodeRecord) -> "NeighborhoodMap":
        members = self.members
        i = bisect_left(members, record.address, key=lambda r: r.address)
        if i < len(members) and members[i].address == record.address:
            raise ValueError(f"{record.address} already in map")
        return NeighborhoodMap(members[:i] + (record,) + members[i:], self.remote_routers)

    def remove(self, address: NodeAddress) -> "NeighborhoodMap":
        if address not in self:
            raise NotAMemberError(str(address))
        members = tuple(r for r in self.members if r.address != address)
        return replace(self, members=members)

    def set_active(self, address: NodeAddress, active: bool) -> "NeighborhoodMap":
        rec = self.member(address)
        if rec is None:
            raise NotAMemberError(str(address))
        members = tuple(
            replace(r, active=active) if r.address == address else r for r in self.members
        )
        return replace(self, members=members)

    def add_remote_router(self, address: NodeAddress) -> "NeighborhoodMap":
        if address in self.remote_routers:
            return self
        return replace(self, remote_routers=tuple(sorted(self.remote_routers + (address,))))


@dataclass(frozen=True)
class ClusterPlan:
    """Contiguous chunking of the sorted active membership."""

    clusters: tuple[tuple[NodeAddress, ...], ...]

    @property
    def members(self) -> tuple[NodeAddress, ...]:
        """Sorted active addresses: the concatenation of the clusters."""
        return tuple(a for c in self.clusters for a in c)

    @property
    def leaders(self) -> tuple[NodeAddress, ...]:
        return tuple(c[0] for c in self.clusters)


def form_clusters(nmap: NeighborhoodMap, cluster_size: int) -> ClusterPlan:
    """Chunk the sorted active membership into clusters of cluster_size.

    All clusters except possibly the last have exactly cluster_size members;
    the leader of each cluster is its lowest address, and the head leader is
    the lowest leader overall.
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    active = [r.address for r in nmap.active_members()]
    if not active:
        raise EmptyNeighborhoodError("no active instances to cluster")
    chunks = tuple(
        tuple(active[i : i + cluster_size]) for i in range(0, len(active), cluster_size)
    )
    return ClusterPlan(clusters=chunks)


def subdivide(nmap: NeighborhoodMap, critical_mass: int) -> tuple[NeighborhoodMap, NeighborhoodMap]:
    """Split an oversized neighborhood at the midpoint of its sorted members.

    With an odd count the extra member goes to the lower-address half. Raises
    NoSplitNeeded at or below critical_mass.
    """
    if critical_mass < 1:
        raise ValueError("critical_mass must be >= 1")
    count = len(nmap.members)
    if count <= critical_mass:
        raise NoSplitNeeded(f"{count} members <= critical mass {critical_mass}")
    cut = (count + 1) // 2
    lower = NeighborhoodMap(members=nmap.members[:cut], remote_routers=nmap.remote_routers)
    upper = NeighborhoodMap(members=nmap.members[cut:], remote_routers=nmap.remote_routers)
    return lower, upper


def elect_router(online: Sequence[NodeRecord], min_clients: int) -> NodeAddress | None:
    """The best eligible record of online, or None: highest uptime, then
    capacity, then closeness (low metric), ties by lowest address.

    The caller passes the members it sees online, since an offline node cannot
    route and failover must never re-elect the node whose loss triggered it.
    Needs min_clients of them; a candidate must clear both MIN_ thresholds."""
    if len(online) < min_clients:
        return None
    eligible = [
        r for r in online if r.uptime_fraction >= MIN_UPTIME_FRACTION and r.link_capacity_bps >= MIN_CAPACITY_BPS
    ]
    if not eligible:
        return None
    best = min(eligible, key=lambda r: (-r.uptime_fraction, -r.link_capacity_bps, r.metric, r.address))
    return best.address
