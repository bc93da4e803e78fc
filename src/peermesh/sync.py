"""Attribute synchronization: scoped attribute lists, update rounds, commits.

An update round propagates every member's attribute entries to every other
member of a neighborhood in four phases:

  IntraForward   each cluster chain ascends from its leader, accumulating
                 entries member by member;
  IntraReverse   the finalized cluster list descends the same chain;
  LeaderRing     cluster leaders exchange cluster lists along the sorted
                 leader ring (up from the head leader, then back down);
  Redistribute   each leader pushes the finalized neighborhood list up its
                 cluster chain once more.

A hop whose target is inactive is skipped and the target marked stale; the
round still completes over the live membership. A cluster leader found dead
in the leader ring is passed over by a re-send to the next live member of its
chain, which holds the cluster list, so its cluster still converges. Scoped
writes outside a round go through a receipt-counted commit with a timeout.

A merge walks the smaller of its two lists against the larger and touches
only the slots that differ. Attribute lists share storage copy-on-write, so
a hop whose sender's list already holds everything the receiver has hands
the receiver that storage instead of a copy. No storage is written while it
is shared, so within a round a merge depends only on the identity of its two
storages: a hop that repeats the round's last merge, as every Redistribute
hop after a chain's first does, reuses its result, and Redistribute costs one
merge per chain. The list a chain or the ring carries belongs to the round
and absorbs each hop's list in place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

from .topology import ClusterPlan, NodeAddress

SCOPE_LOCAL = "local"
SCOPE_GLOBAL = "global"
_GROUP_RE = re.compile(r"^group:[A-Za-z0-9_.-]+$")

UPDATE_CLASSES = ("aggressive", "moderate", "light")
UPDATE_PERIOD_BASES = {"aggressive": 10, "moderate": 50, "light": 250}
REFERENCE_METRIC = 100.0


def validate_scope(scope: str) -> str:
    if scope in (SCOPE_LOCAL, SCOPE_GLOBAL) or _GROUP_RE.match(scope):
        return scope
    raise ValueError(f"bad scope {scope!r}: want local, global, or group:<id>")


class ConfigurationError(ValueError):
    """A round or commit was set up against inconsistent inputs."""


class NotInGroupError(ValueError):
    pass


@dataclass(frozen=True)
class AttributeEntry:
    key: str
    scope: str
    value: bytes
    version: int
    owner: NodeAddress
    update_class: str = "moderate"

    def __post_init__(self):
        validate_scope(self.scope)
        if not self.key:
            raise ValueError("empty attribute key")
        if self.version < 1:
            raise ValueError("version must be >= 1")
        if self.update_class not in UPDATE_CLASSES:
            raise ValueError(f"unknown update class {self.update_class!r}")


def _prefer(a: AttributeEntry, b: AttributeEntry) -> AttributeEntry:
    # Higher version wins; exact ties fall back to the smaller
    # (value, scope, class) tuple so merging stays a total order.
    if a.version != b.version:
        return a if a.version > b.version else b
    ka = (a.value, a.scope, a.update_class)
    kb = (b.value, b.scope, b.update_class)
    return a if ka <= kb else b


class AttributeList:
    """At most one entry per (key, owner); versions only move forward.

    Storage is shared copy-on-write: `copy()`, and a merge that adds nothing
    to its larger input, hand out the same dict and flag both lists shared.
    `put` and `absorb` copy a shared dict once, before their first write, so
    no list ever sees another's writes.
    """

    def __init__(self, entries: Iterable[AttributeEntry] = ()):
        self._entries: dict[tuple[str, NodeAddress], AttributeEntry] = {}
        self._shared = False
        for e in entries:
            self.put(e)

    def put(self, entry: AttributeEntry) -> None:
        slot = (entry.key, entry.owner)
        existing = self._entries.get(slot)
        if existing is not None:
            if entry.version <= existing.version:
                raise ValueError(
                    f"version must increase for {slot}: {existing.version} -> {entry.version}"
                )
            if entry.scope != existing.scope:
                raise ValueError(f"scope of {slot} is fixed at {existing.scope!r}")
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False
        self._entries[slot] = entry

    def absorb(self, other: "AttributeList") -> None:
        """Merge `other` into this list in place; see `merge_lists`."""
        mine = self._entries
        for slot, entry in other._entries.items():
            have = mine.get(slot)
            if have is not entry and (have is None or _prefer(have, entry) is not have):
                if self._shared:
                    mine = self._entries = dict(mine)
                    self._shared = False
                mine[slot] = entry

    def get(self, key: str, owner: NodeAddress) -> AttributeEntry | None:
        return self._entries.get((key, owner))

    def entries(self) -> tuple[AttributeEntry, ...]:
        return tuple(self._entries[k] for k in sorted(self._entries))

    def copy(self) -> "AttributeList":
        new = AttributeList()
        new._entries = self._entries
        new._shared = self._shared = True
        return new

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, AttributeList) and (
            self._entries is other._entries or self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"AttributeList({len(self._entries)} entries)"


def merge_lists(a: AttributeList, b: AttributeList) -> AttributeList:
    """Union over (key, owner); conflicts resolved by version, then tuple order.

    A copy of the larger list absorbs the smaller one: only the slots where
    the smaller adds or wins are written. A slot holding the same entry
    object on both sides is skipped; `_prefer` runs only on a real conflict.
    When nothing is written the result shares the larger list's storage;
    otherwise that storage is copied once, before the first write.
    """
    big, small = (a, b) if len(a._entries) >= len(b._entries) else (b, a)
    merged = big.copy()
    merged.absorb(small)
    return merged


def merge_all(lists: Iterable[AttributeList]) -> AttributeList:
    """The merge of every list: what each member holds after a round in which
    nobody is lost. A copy of the largest storage absorbs each other distinct
    storage once, so members that share storage, as a round leaves them, cost
    one merge between them."""
    distinct = list({id(lst._entries): lst for lst in lists}.values())
    big = max(distinct, key=len)
    merged = big.copy()
    for lst in distinct:
        if lst is not big:
            merged.absorb(lst)
    return merged


# ---------------------------------------------------------------------------
# Update rounds
# ---------------------------------------------------------------------------


class Phase(Enum):
    __hash__ = object.__hash__  # counting a hop hashes its phase; Enum's hash is Python code
    INTRA_FORWARD = "intra-forward"
    INTRA_REVERSE = "intra-reverse"
    LEADER_RING = "leader-ring"
    REDISTRIBUTE = "redistribute"
    DONE = "done"


class UpdateRound:
    """One four-phase synchronization round, delivered one hop per step().

    The round is the generator `_run`: the four phases in order as plain
    loops, pausing before every hop, so `phase` names the phase of the next
    hop; `run_round` runs it to the end without `step()`. Within a phase the
    cluster chains go one after another. Owned by a single event loop.
    `is_active` is consulted for each hop target as the hop is delivered, so
    members lost mid-round are skipped and marked stale instead of stalling
    a chain. A cluster head found dead in the leader ring is passed over by
    a re-send to the next live member of its chain. That member took the
    cluster list during IntraReverse and becomes the head the ring and
    Redistribute use. Re-sends count in `retransmits`, not in
    `phase_messages`.
    """

    def __init__(
        self,
        plan: ClusterPlan,
        lists: Mapping[NodeAddress, AttributeList],
        is_active: Callable[[NodeAddress], bool] | None = None,
    ):
        self.plan = plan
        self.is_active = is_active or (lambda _addr: True)
        missing = [a for a in plan.members if a not in lists]
        if missing:
            raise ConfigurationError(f"members without attribute lists: {missing}")
        self.lists: dict[NodeAddress, AttributeList] = {
            addr: lists[addr].copy() for addr in plan.members
        }
        self.stale: set[NodeAddress] = set()
        self.retransmits = 0
        self.phase_messages: dict[Phase, int] = {p: 0 for p in Phase if p is not Phase.DONE}
        # Live member chains; clusters with no live member drop out of the round.
        chains = [[a for a in cluster if self._live(a)] for cluster in plan.clusters]
        self._chains = [c for c in chains if c]
        if not self._chains:
            raise ConfigurationError("no active members in any cluster")
        self._last_merge = (None, None, None)  # (storage, storage, their merge)
        self._hops = self._run()
        next(self._hops, None)  # up to the first hop

    @property
    def message_count(self) -> int:
        return sum(self.phase_messages.values())

    def _live(self, addr: NodeAddress) -> bool:
        if self.is_active(addr):
            return True
        self.stale.add(addr)
        return False

    def _head_live(self, k: int) -> bool:
        """Whether cluster k still has a live head, re-sending past dead ones."""
        chain = self._chains[k]
        while chain and not self._live(chain[0]):
            del chain[0]
            if chain:
                self.retransmits += 1
        return bool(chain)

    def _give(self, target: NodeAddress, src: AttributeList) -> None:
        """Merge `src` into target's list, reusing the last merge on a repeat.
        The cache holds both storages and flags them shared, so neither id is
        reused and neither storage written while it is held."""
        mine = self.lists[target]
        a, b, merged = self._last_merge
        if a is mine._entries and b is src._entries:
            self.lists[target] = merged.copy()
            return
        merged = self.lists[target] = merge_lists(mine, src)
        mine._shared = src._shared = True
        self._last_merge = (mine._entries, src._entries, merged)

    def _walk(self, chain: list, step: int, deliver: Callable, live: Callable) -> Iterator[None]:
        """Hop along `chain` up from its first entry (step 1) or down from its
        last (step -1), pausing before each hop. On resume, dead targets leave
        the chain and the next live one gets deliver(target)."""
        i = 0 if step > 0 else len(chain) - 1
        while 0 <= i + step < len(chain):
            yield
            i += step
            while 0 <= i < len(chain) and not live(chain[i]):
                del chain[i]
                if step < 0:
                    i -= 1
            if 0 <= i < len(chain):
                self.phase_messages[self.phase] += 1
                deliver(chain[i])

    def _run(self) -> Iterator[None]:
        chains = self._chains
        final: list[AttributeList | None] = [None] * len(chains)
        # Each chain ascends from its leader, gathering its members' entries.
        self.phase = Phase.INTRA_FORWARD
        for k, chain in enumerate(chains):
            carried = self.lists[chain[0]].copy()
            yield from self._walk(chain, 1, lambda t: carried.absorb(self.lists[t]), self._live)
            final[k] = carried

        # The top of each chain keeps the cluster list and sends it back down.
        self.phase = Phase.INTRA_REVERSE
        for k, chain in enumerate(chains):
            self._give(chain[-1], final[k])
            yield from self._walk(chain, -1, lambda t: self._give(t, final[k]), self._live)

        # Leaders gather the cluster lists up the ring, then pass the result down.
        self.phase = Phase.LEADER_RING
        ring = list(range(len(chains)))
        carried = final[0].copy()
        if len(ring) > 1:
            yield from self._walk(ring, 1, lambda k: carried.absorb(final[k]), self._head_live)
            self._give(chains[ring[-1]][0], carried)
            push = lambda k: self._give(chains[k][0], carried)
            yield from self._walk(ring, -1, push, self._head_live)

        # Each leader pushes what it holds up its chain once more.
        self.phase = Phase.REDISTRIBUTE
        for chain in filter(None, chains):  # a cluster may have died out in the ring
            head = self.lists[chain[0]]
            yield from self._walk(chain, 1, lambda t: self._give(t, head), self._live)
        self.phase = Phase.DONE

    def step(self) -> "UpdateRound":
        """Deliver one message hop. Raises once the round is Done."""
        if self.done:
            raise ConfigurationError("round already complete")
        next(self._hops, None)
        return self

    @property
    def done(self) -> bool:
        return self.phase is Phase.DONE

    def final_lists(self) -> dict[NodeAddress, AttributeList]:
        if not self.done:
            raise ConfigurationError("round not complete")
        return dict(self.lists)


def run_round(
    plan: ClusterPlan,
    lists: Mapping[NodeAddress, AttributeList],
    is_active: Callable[[NodeAddress], bool] | None = None,
) -> UpdateRound:
    """Start a round and drive it to completion."""
    r = UpdateRound(plan, lists, is_active)
    for _ in r._hops:
        pass
    return r


# ---------------------------------------------------------------------------
# Scoped commits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommitResult:
    at: int
    acks: frozenset[NodeAddress]
    absentees: frozenset[NodeAddress]

    @property
    def full(self) -> bool:
        return not self.absentees


@dataclass
class PendingCommit:
    """A proposed attribute change awaiting receipts from its group.

    The group is snapshotted at propose time. The commit resolves exactly
    once: early when every member has acked, otherwise at the deadline over
    whoever acked, flagging the rest as offline.
    """

    key: str
    value: bytes
    scope: str
    proposer: NodeAddress
    group: frozenset[NodeAddress]
    deadline: int
    acks: set[NodeAddress] = field(default_factory=set)
    resolution: CommitResult | None = None


def propose_commit(
    group: Iterable[NodeAddress],
    proposer: NodeAddress,
    key: str,
    value: bytes,
    now: int,
    timeout: int,
    scope: str = SCOPE_LOCAL,
) -> PendingCommit:
    members = frozenset(group)
    if proposer not in members:
        raise ConfigurationError(f"proposer {proposer} not in group")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    validate_scope(scope)
    commit = PendingCommit(
        key=key,
        value=value,
        scope=scope,
        proposer=proposer,
        group=members,
        deadline=now + timeout,
        acks={proposer},
    )
    _maybe_complete(commit, now)
    return commit


def ack(commit: PendingCommit, member: NodeAddress, now: int) -> PendingCommit:
    """Record a receipt. Duplicate acks are no-ops; non-members are rejected."""
    if member not in commit.group:
        raise NotInGroupError(f"{member} is not in the commit group")
    if commit.resolution is None:
        commit.acks.add(member)
        _maybe_complete(commit, now)
    return commit


def expire(commit: PendingCommit, now: int) -> PendingCommit:
    """Finalize at/after the deadline over the acks received so far."""
    if commit.resolution is None and now >= commit.deadline:
        commit.resolution = CommitResult(
            at=now,
            acks=frozenset(commit.acks),
            absentees=commit.group - commit.acks,
        )
    return commit


def _maybe_complete(commit: PendingCommit, now: int) -> None:
    if commit.resolution is None and commit.acks == commit.group:
        commit.resolution = CommitResult(at=now, acks=frozenset(commit.acks), absentees=frozenset())


# ---------------------------------------------------------------------------
# Update cadence
# ---------------------------------------------------------------------------


def update_period(update_class: str, metrics: Iterable[float]) -> int:
    """Refresh period in virtual units: base(class) * (1 + median/reference).

    Distant memberships (high median metric) refresh more slowly; a zero
    median leaves the base period untouched.
    """
    if update_class not in UPDATE_PERIOD_BASES:
        raise ValueError(f"unknown update class {update_class!r}")
    values = sorted(metrics)
    if not values:
        raise ValueError("metrics must be non-empty")
    if values[0] < 0:
        raise ValueError("metrics must be non-negative")
    half = len(values) // 2
    median = values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2
    base = UPDATE_PERIOD_BASES[update_class]
    return max(1, round(base * (1.0 + median / REFERENCE_METRIC)))
